//! hwloc-style machine topology trees (Figure 2).
//!
//! The paper's Figure 2 shows `lstopo` output for the Xeon 5550 and the
//! A9500. [`Topology`] is a minimal hwloc: a tree of machines, sockets,
//! caches, cores and processing units with an ASCII renderer, plus the
//! two machines as presets.

use std::fmt;

/// The kind of one topology object, mirroring hwloc's object types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A whole machine with total memory in bytes.
    Machine {
        /// Total RAM in bytes.
        memory_bytes: u64,
    },
    /// A physical package/socket.
    Socket {
        /// Physical index.
        id: u32,
    },
    /// A cache level with its capacity.
    Cache {
        /// 1 = L1, 2 = L2, 3 = L3.
        level: u8,
        /// Capacity in bytes.
        size_bytes: u64,
    },
    /// A physical core.
    Core {
        /// Physical index.
        id: u32,
    },
    /// A processing unit (hardware thread).
    Pu {
        /// Physical index.
        id: u32,
    },
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn kb(bytes: u64) -> u64 {
            bytes / 1024
        }
        match self {
            ObjectKind::Machine { memory_bytes } => {
                if *memory_bytes >= 1 << 30 {
                    write!(f, "Machine ({}GB)", memory_bytes >> 30)
                } else {
                    write!(f, "Machine ({}MB)", memory_bytes >> 20)
                }
            }
            ObjectKind::Socket { id } => write!(f, "Socket P#{id}"),
            ObjectKind::Cache { level, size_bytes } => {
                write!(f, "L{level} ({}KB)", kb(*size_bytes))
            }
            ObjectKind::Core { id } => write!(f, "Core P#{id}"),
            ObjectKind::Pu { id } => write!(f, "PU P#{id}"),
        }
    }
}

/// A node in the topology tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyNode {
    /// What this node is.
    pub kind: ObjectKind,
    /// Children, outermost-in (socket → cache → core → PU).
    pub children: Vec<TopologyNode>,
}

impl TopologyNode {
    /// Creates a leaf node.
    pub fn leaf(kind: ObjectKind) -> Self {
        TopologyNode {
            kind,
            children: Vec::new(),
        }
    }

    /// Creates a node with children.
    pub fn with_children(kind: ObjectKind, children: Vec<TopologyNode>) -> Self {
        TopologyNode { kind, children }
    }

    fn count_kind(&self, pred: &dyn Fn(&ObjectKind) -> bool) -> usize {
        let own = usize::from(pred(&self.kind));
        own + self
            .children
            .iter()
            .map(|c| c.count_kind(pred))
            .sum::<usize>()
    }
}

/// A whole-machine topology (Figure 2).
///
/// # Examples
///
/// ```
/// use mb_mem::topology::Topology;
///
/// let xeon = Topology::xeon_x5550();
/// assert_eq!(xeon.num_cores(), 4); // hyperthreading disabled, as in §III.C
/// let art = xeon.render();
/// assert!(art.contains("L3 (8192KB)"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// A short machine name (e.g. `"Xeon X5550"`).
    pub name: String,
    /// The root (Machine) node.
    pub root: TopologyNode,
}

impl Topology {
    /// The Xeon X5550 host of Figure 2a: 12 GB RAM, one socket, 8 MB
    /// shared L3, four cores each with 256 KB L2 and 32 KB L1
    /// (hyperthreading disabled per Section III.C).
    pub fn xeon_x5550() -> Self {
        let cores: Vec<TopologyNode> = (0..4)
            .map(|i| {
                TopologyNode::with_children(
                    ObjectKind::Cache {
                        level: 2,
                        size_bytes: 256 * 1024,
                    },
                    vec![TopologyNode::with_children(
                        ObjectKind::Cache {
                            level: 1,
                            size_bytes: 32 * 1024,
                        },
                        vec![TopologyNode::with_children(
                            ObjectKind::Core { id: i },
                            vec![TopologyNode::leaf(ObjectKind::Pu { id: i })],
                        )],
                    )],
                )
            })
            .collect();
        let socket = TopologyNode::with_children(
            ObjectKind::Socket { id: 0 },
            vec![TopologyNode::with_children(
                ObjectKind::Cache {
                    level: 3,
                    size_bytes: 8 * 1024 * 1024,
                },
                cores,
            )],
        );
        Topology {
            name: "Xeon X5550".to_string(),
            root: TopologyNode::with_children(
                ObjectKind::Machine {
                    memory_bytes: 12 << 30,
                },
                vec![socket],
            ),
        }
    }

    /// The ST-Ericsson A9500 of Figure 2b: 796 MB visible RAM, one
    /// socket, 512 KB shared L2, two cores each with a 32 KB L1.
    pub fn a9500() -> Self {
        let cores: Vec<TopologyNode> = (0..2)
            .map(|i| {
                TopologyNode::with_children(
                    ObjectKind::Cache {
                        level: 1,
                        size_bytes: 32 * 1024,
                    },
                    vec![TopologyNode::with_children(
                        ObjectKind::Core { id: i },
                        vec![TopologyNode::leaf(ObjectKind::Pu { id: i })],
                    )],
                )
            })
            .collect();
        let socket = TopologyNode::with_children(
            ObjectKind::Socket { id: 0 },
            vec![TopologyNode::with_children(
                ObjectKind::Cache {
                    level: 2,
                    size_bytes: 512 * 1024,
                },
                cores,
            )],
        );
        Topology {
            name: "ST-Ericsson A9500".to_string(),
            root: TopologyNode::with_children(
                ObjectKind::Machine {
                    memory_bytes: 796 << 20,
                },
                vec![socket],
            ),
        }
    }

    /// The NVIDIA Tegra2 (one Tibidabo node): 2 Cortex-A9 cores, 1 MB L2.
    pub fn tegra2() -> Self {
        let mut t = Topology::a9500();
        t.name = "NVIDIA Tegra2".to_string();
        // Upgrade the L2 to 1 MB.
        fn bump(node: &mut TopologyNode) {
            if let ObjectKind::Cache {
                level: 2,
                ref mut size_bytes,
            } = node.kind
            {
                *size_bytes = 1024 * 1024;
            }
            for c in &mut node.children {
                bump(c);
            }
        }
        bump(&mut t.root);
        t
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.root
            .count_kind(&|k| matches!(k, ObjectKind::Core { .. }))
    }

    /// Renders the tree as indented ASCII, in the spirit of
    /// `lstopo --of txt` (Figure 2).
    pub fn render(&self) -> String {
        let mut out = String::new();
        fn walk(node: &TopologyNode, depth: usize, out: &mut String) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&node.kind.to_string());
            out.push('\n');
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        out.push_str(&format!("Host: {}\n", self.name));
        walk(&self.root, 0, &mut out);
        out
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pus(t: &Topology) -> usize {
        t.root.count_kind(&|k| matches!(k, ObjectKind::Pu { .. }))
    }

    fn caches(t: &Topology, level: u8) -> usize {
        t.root
            .count_kind(&|k| matches!(k, ObjectKind::Cache { level: l, .. } if *l == level))
    }

    #[test]
    fn xeon_shape_matches_figure_2a() {
        let t = Topology::xeon_x5550();
        assert_eq!(t.num_cores(), 4);
        assert_eq!(pus(&t), 4); // hyperthreading disabled, as in §III.C
        assert_eq!(caches(&t, 3), 1);
        assert_eq!(caches(&t, 2), 4);
        assert_eq!(caches(&t, 1), 4);
        let art = t.render();
        assert!(art.contains("Machine (12GB)"));
        assert!(art.contains("L3 (8192KB)"));
        assert!(art.contains("L2 (256KB)"));
        assert!(art.contains("L1 (32KB)"));
        assert!(art.contains("PU P#3"));
    }

    #[test]
    fn a9500_shape_matches_figure_2b() {
        let t = Topology::a9500();
        assert_eq!(t.num_cores(), 2);
        assert_eq!(caches(&t, 2), 1);
        assert_eq!(caches(&t, 1), 2);
        assert_eq!(caches(&t, 3), 0);
        let art = t.render();
        assert!(art.contains("Machine (796MB)"));
        assert!(art.contains("L2 (512KB)"));
    }

    #[test]
    fn tegra2_has_bigger_l2() {
        let t = Topology::tegra2();
        let art = t.render();
        assert!(art.contains("L2 (1024KB)"));
        assert_eq!(t.num_cores(), 2);
    }

    #[test]
    fn display_matches_render() {
        let t = Topology::a9500();
        assert_eq!(t.to_string(), t.render());
    }

    #[test]
    fn kind_display() {
        assert_eq!(
            ObjectKind::Machine {
                memory_bytes: 12 << 30
            }
            .to_string(),
            "Machine (12GB)"
        );
        assert_eq!(
            ObjectKind::Cache {
                level: 1,
                size_bytes: 32768
            }
            .to_string(),
            "L1 (32KB)"
        );
        assert_eq!(ObjectKind::Socket { id: 0 }.to_string(), "Socket P#0");
    }
}
