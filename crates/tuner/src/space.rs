//! Discrete parameter spaces.

/// A point in a parameter space: one level index per parameter, in
/// declaration order.
pub type Point = Vec<usize>;

/// A named parameter with integer levels.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Parameter {
    name: String,
    levels: Vec<i64>,
}

/// A discrete, named, multi-dimensional parameter space.
///
/// # Examples
///
/// ```
/// use mb_tuner::space::ParameterSpace;
///
/// // The Figure 6 space: element bits × unrolled.
/// let space = ParameterSpace::new()
///     .with_parameter("elem_bits", vec![32, 64, 128])
///     .with_parameter("unrolled", vec![0, 1]);
/// assert_eq!(space.cardinality(), 6);
/// let points: Vec<_> = space.points().collect();
/// assert_eq!(points.len(), 6);
/// assert_eq!(space.value("elem_bits", &points[0]), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParameterSpace {
    params: Vec<Parameter>,
}

impl ParameterSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        ParameterSpace::default()
    }

    /// Adds a parameter, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if the name is duplicated or `levels` is empty.
    pub fn with_parameter(mut self, name: impl Into<String>, levels: Vec<i64>) -> Self {
        let name = name.into();
        assert!(!levels.is_empty(), "parameter {name} has no levels");
        assert!(
            self.params.iter().all(|p| p.name != name),
            "duplicate parameter {name}"
        );
        self.params.push(Parameter { name, levels });
        self
    }

    /// Number of parameters.
    pub fn num_parameters(&self) -> usize {
        self.params.len()
    }

    /// Total number of points (product of level counts; 0 for an empty
    /// space).
    pub fn cardinality(&self) -> usize {
        if self.params.is_empty() {
            0
        } else {
            self.params.iter().map(|p| p.levels.len()).product()
        }
    }

    /// Number of levels of parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn levels(&self, i: usize) -> usize {
        self.params[i].levels.len()
    }

    /// The concrete value of the named parameter at a point.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown or the point is malformed.
    pub fn value(&self, name: &str, point: &Point) -> i64 {
        let idx = self
            .params
            .iter()
            .position(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown parameter {name}"));
        self.params[idx].levels[point[idx]]
    }

    /// Iterates over every point in row-major order (last parameter
    /// fastest).
    pub fn points(&self) -> Points<'_> {
        Points {
            space: self,
            next: if self.params.is_empty() {
                None
            } else {
                Some(vec![0; self.params.len()])
            },
        }
    }

    /// Validates a point's shape and ranges.
    pub fn contains(&self, point: &Point) -> bool {
        point.len() == self.params.len()
            && point
                .iter()
                .zip(&self.params)
                .all(|(&i, p)| i < p.levels.len())
    }

    /// Neighbours of a point: all points differing by ±1 in exactly one
    /// coordinate (used by hill climbing).
    ///
    /// # Panics
    ///
    /// Panics if the point is not in the space.
    pub fn neighbours(&self, point: &Point) -> Vec<Point> {
        assert!(self.contains(point), "point not in space");
        let mut out = Vec::new();
        for d in 0..point.len() {
            if point[d] > 0 {
                let mut p = point.clone();
                p[d] -= 1;
                out.push(p);
            }
            if point[d] + 1 < self.params[d].levels.len() {
                let mut p = point.clone();
                p[d] += 1;
                out.push(p);
            }
        }
        out
    }
}

/// Iterator over all points of a space (see
/// [`ParameterSpace::points`]).
#[derive(Debug)]
pub struct Points<'a> {
    space: &'a ParameterSpace,
    next: Option<Point>,
}

impl Iterator for Points<'_> {
    type Item = Point;
    fn next(&mut self) -> Option<Point> {
        let current = self.next.clone()?;
        // Advance (odometer, last digit fastest).
        let mut p = current.clone();
        let mut d = p.len();
        loop {
            if d == 0 {
                self.next = None;
                break;
            }
            d -= 1;
            p[d] += 1;
            if p[d] < self.space.params[d].levels.len() {
                self.next = Some(p);
                break;
            }
            p[d] = 0;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParameterSpace {
        ParameterSpace::new()
            .with_parameter("a", vec![10, 20])
            .with_parameter("b", vec![1, 2, 3])
    }

    #[test]
    fn cardinality_and_enumeration() {
        let s = space();
        assert_eq!(s.cardinality(), 6);
        let pts: Vec<Point> = s.points().collect();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts[1], vec![0, 1]);
        assert_eq!(pts[5], vec![1, 2]);
        // All distinct.
        let set: std::collections::HashSet<_> = pts.iter().cloned().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn values_resolve() {
        let s = space();
        assert_eq!(s.value("a", &vec![1, 0]), 20);
        assert_eq!(s.value("b", &vec![1, 2]), 3);
    }

    #[test]
    fn contains_checks() {
        let s = space();
        assert!(s.contains(&vec![0, 2]));
        assert!(!s.contains(&vec![0, 3]));
        assert!(!s.contains(&vec![0]));
    }

    #[test]
    fn neighbours_are_unit_steps() {
        let s = space();
        let n = s.neighbours(&vec![0, 1]);
        assert_eq!(n.len(), 3); // a+1, b-1, b+1
        assert!(n.contains(&vec![1, 1]));
        assert!(n.contains(&vec![0, 0]));
        assert!(n.contains(&vec![0, 2]));
        // Corner point has fewer neighbours.
        assert_eq!(s.neighbours(&vec![0, 0]).len(), 2);
    }

    #[test]
    fn empty_space() {
        let s = ParameterSpace::new();
        assert_eq!(s.cardinality(), 0);
        assert_eq!(s.points().count(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_name_panics() {
        let _ = ParameterSpace::new()
            .with_parameter("x", vec![1])
            .with_parameter("x", vec![2]);
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_name_panics() {
        let s = space();
        let _ = s.value("z", &vec![0, 0]);
    }
}
