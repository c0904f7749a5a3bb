//! Table I — the eleven HPC applications selected by the Mont-Blanc
//! project.

use std::fmt;

/// The dominant programming/communication paradigm of an application, as
/// far as the paper discusses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// Dense linear algebra (LINPACK-like).
    DenseLinearAlgebra,
    /// Spectral/stencil methods with nearest-neighbour halo exchange.
    NearestNeighbour,
    /// Collective-heavy (all-to-all transpositions).
    CollectiveHeavy,
    /// Particle methods.
    Particles,
    /// Monte-Carlo / ensemble.
    MonteCarlo,
    /// Not characterised in the paper.
    Unspecified,
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Application {
    /// Code name.
    pub code: &'static str,
    /// Scientific domain.
    pub domain: &'static str,
    /// Owning institution.
    pub institution: &'static str,
    /// Dominant paradigm (our annotation).
    pub paradigm: Paradigm,
    /// Whether this reproduction implements a kernel/skeleton for it.
    pub reproduced: bool,
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<18} {:<30} {}",
            self.code, self.domain, self.institution
        )
    }
}

/// Table I, verbatim from the paper, annotated with paradigm and
/// reproduction status (the paper itself focuses on SPECFEM3D and
/// BigDFT).
pub fn selected_applications() -> Vec<Application> {
    use Paradigm::*;
    vec![
        Application {
            code: "YALES2",
            domain: "Combustion",
            institution: "CNRS/CORIA",
            paradigm: NearestNeighbour,
            reproduced: false,
        },
        Application {
            code: "EUTERPE",
            domain: "Fusion",
            institution: "BSC",
            paradigm: Particles,
            reproduced: false,
        },
        Application {
            code: "SPECFEM3D",
            domain: "Wave Propagation",
            institution: "CNRS",
            paradigm: NearestNeighbour,
            reproduced: true,
        },
        Application {
            code: "MP2C",
            domain: "Multi-particle Collision",
            institution: "JSC",
            paradigm: Particles,
            reproduced: false,
        },
        Application {
            code: "BigDFT",
            domain: "Electronic Structure",
            institution: "CEA",
            paradigm: CollectiveHeavy,
            reproduced: true,
        },
        Application {
            code: "Quantum Expresso",
            domain: "Electronic Structure",
            institution: "CINECA",
            paradigm: CollectiveHeavy,
            reproduced: false,
        },
        Application {
            code: "PEPC",
            domain: "Coulomb & Gravitational Forces",
            institution: "JSC",
            paradigm: Particles,
            reproduced: false,
        },
        Application {
            code: "SMMP",
            domain: "Protein Folding",
            institution: "JSC",
            paradigm: MonteCarlo,
            reproduced: false,
        },
        Application {
            code: "PorFASI",
            domain: "Protein Folding",
            institution: "JSC",
            paradigm: MonteCarlo,
            reproduced: false,
        },
        Application {
            code: "COSMO",
            domain: "Weather Forecast",
            institution: "CINECA",
            paradigm: NearestNeighbour,
            reproduced: false,
        },
        Application {
            code: "BQCD",
            domain: "Particle Physics",
            institution: "LRZ",
            paradigm: Unspecified,
            reproduced: false,
        },
    ]
}

/// Renders Table I as fixed-width text.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:<30} {}\n",
        "Code", "Scientific Domain", "Institution"
    ));
    out.push_str(&"-".repeat(60));
    out.push('\n');
    for app in selected_applications() {
        out.push_str(&app.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_applications() {
        assert_eq!(selected_applications().len(), 11);
    }

    #[test]
    fn focus_codes_present_and_reproduced() {
        let apps = selected_applications();
        let specfem = apps.iter().find(|a| a.code == "SPECFEM3D").expect("row");
        let bigdft = apps.iter().find(|a| a.code == "BigDFT").expect("row");
        assert!(specfem.reproduced);
        assert!(bigdft.reproduced);
        assert_eq!(specfem.institution, "CNRS");
        assert_eq!(bigdft.institution, "CEA");
    }

    #[test]
    fn table_renders_all_rows() {
        let t = render_table1();
        assert_eq!(t.lines().count(), 13); // header + rule + 11 rows
        assert!(t.contains("Quantum Expresso"));
        assert!(t.contains("BQCD"));
    }
}
