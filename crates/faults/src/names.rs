//! Named-element fault addressing.
//!
//! [`Fault`] addresses elements by creation-order `u32` indices, which
//! keeps the plan machinery free of any network dependency — but makes
//! hand-written fault scenarios brittle: "directed link 4" silently
//! retargets when the fabric builder gains a node, while "the link from
//! `host1` to `sw1`" cannot. This module adds the stable spelling:
//! an [`ElementNames`] table (exported by the topology owner, e.g.
//! `mb_net::Network::element_names`) and a [`NamedFault`] mirror of the
//! `Fault` enum whose link targets are endpoint-name pairs. Resolution
//! is total and typed — an unknown or ambiguous name is a
//! [`NameError`], never a silently mis-aimed fault — and a resolved
//! plan is an ordinary [`FaultPlan`], bit-identical to one built from
//! the raw indices (pinned by `montblanc`'s `named_faults` test).

use crate::fault::Fault;
use crate::plan::FaultPlan;
use crate::FaultWindow;
use mb_simcore::time::SimTime;

/// Typed failure of name → index resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A host name that appears twice in the table.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// A link endpoint that names no host or switch in the table.
    UnknownEndpoint {
        /// The offending endpoint name.
        name: String,
        /// Directed-link index whose record referenced it.
        link: u32,
    },
    /// No host with this name.
    UnknownHost {
        /// The name looked up.
        name: String,
    },
    /// No switch with this name.
    UnknownSwitch {
        /// The name looked up.
        name: String,
    },
    /// No directed link runs `from → to`.
    UnknownLink {
        /// Source endpoint name.
        from: String,
        /// Destination endpoint name.
        to: String,
    },
    /// More than one directed link runs `from → to` (parallel cables);
    /// a name pair cannot single one out, so the caller must fall back
    /// to the index spelling.
    AmbiguousLink {
        /// Source endpoint name.
        from: String,
        /// Destination endpoint name.
        to: String,
        /// How many parallel links matched.
        count: usize,
    },
}

impl std::fmt::Display for NameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NameError::DuplicateName { name } => {
                write!(f, "element name {name:?} is not unique")
            }
            NameError::UnknownEndpoint { name, link } => {
                write!(f, "link {link} endpoint {name:?} names no host or switch")
            }
            NameError::UnknownHost { name } => write!(f, "no host named {name:?}"),
            NameError::UnknownSwitch { name } => write!(f, "no switch named {name:?}"),
            NameError::UnknownLink { from, to } => {
                write!(f, "no directed link {from:?} -> {to:?}")
            }
            NameError::AmbiguousLink { from, to, count } => write!(
                f,
                "{count} parallel links {from:?} -> {to:?}; address by index instead"
            ),
        }
    }
}

impl std::error::Error for NameError {}

/// The name table of one concrete topology: host and switch names in
/// creation order, plus each directed link's endpoint-name pair, in
/// link-index order. Built by the topology owner (the network graph),
/// consumed here — so this crate still depends only on `mb-simcore`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementNames {
    hosts: Vec<String>,
    switches: Vec<String>,
    links: Vec<(String, String)>,
}

impl ElementNames {
    /// Builds and validates a name table.
    ///
    /// # Errors
    ///
    /// Returns [`NameError::DuplicateName`] if any name appears twice
    /// across hosts and switches (a link endpoint pair would become
    /// ambiguous), and [`NameError::UnknownEndpoint`] if a link
    /// references a name outside the table.
    pub fn new(
        hosts: Vec<String>,
        switches: Vec<String>,
        links: Vec<(String, String)>,
    ) -> Result<Self, NameError> {
        let mut seen = std::collections::BTreeSet::new();
        for name in hosts.iter().chain(&switches) {
            if !seen.insert(name.as_str()) {
                return Err(NameError::DuplicateName { name: name.clone() });
            }
        }
        for (i, (from, to)) in links.iter().enumerate() {
            for name in [from, to] {
                if !seen.contains(name.as_str()) {
                    return Err(NameError::UnknownEndpoint {
                        name: name.clone(),
                        link: i as u32,
                    });
                }
            }
        }
        Ok(ElementNames {
            hosts,
            switches,
            links,
        })
    }

    /// Host names, in creation (= host-ordinal) order.
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }

    /// Switch names, in creation (= switch-ordinal) order.
    pub fn switches(&self) -> &[String] {
        &self.switches
    }

    /// Directed-link endpoint pairs, in link-index order.
    pub fn links(&self) -> &[(String, String)] {
        &self.links
    }

    /// Host ordinal of `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NameError::UnknownHost`] if no host carries the name.
    pub fn host_index(&self, name: &str) -> Result<u32, NameError> {
        self.hosts
            .iter()
            .position(|h| h == name)
            .map(|i| i as u32)
            .ok_or_else(|| NameError::UnknownHost { name: name.into() })
    }

    /// Switch ordinal of `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NameError::UnknownSwitch`] if no switch carries the
    /// name.
    pub fn switch_index(&self, name: &str) -> Result<u32, NameError> {
        self.switches
            .iter()
            .position(|s| s == name)
            .map(|i| i as u32)
            .ok_or_else(|| NameError::UnknownSwitch { name: name.into() })
    }

    /// Index of the directed link `from → to`.
    ///
    /// # Errors
    ///
    /// Returns [`NameError::UnknownLink`] when no link matches and
    /// [`NameError::AmbiguousLink`] when several do.
    pub fn link_index(&self, from: &str, to: &str) -> Result<u32, NameError> {
        let mut matches = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, (f, t))| f == from && t == to)
            .map(|(i, _)| i as u32);
        match (matches.next(), matches.count()) {
            (Some(i), 0) => Ok(i),
            (None, _) => Err(NameError::UnknownLink {
                from: from.into(),
                to: to.into(),
            }),
            (Some(_), extra) => Err(NameError::AmbiguousLink {
                from: from.into(),
                to: to.into(),
                count: extra + 1,
            }),
        }
    }
}

/// A fault spelled against element *names* instead of creation-order
/// indices. One variant per [`Fault`] variant; [`NamedFault::resolve`]
/// maps it onto the index form, and [`FaultPlan::from_named`] builds a
/// whole plan. `RankCrash` keeps its numeric rank — MPI ranks *are*
/// the stable name of a process.
#[derive(Debug, Clone, PartialEq)]
pub enum NamedFault {
    /// [`Fault::LinkDown`] addressed by the link's endpoint names.
    LinkDown {
        /// Source endpoint (host or switch) name.
        from: String,
        /// Destination endpoint name.
        to: String,
        /// Outage interval.
        window: FaultWindow,
    },
    /// [`Fault::LinkDegrade`] addressed by the link's endpoint names.
    LinkDegrade {
        /// Source endpoint name.
        from: String,
        /// Destination endpoint name.
        to: String,
        /// Degradation interval.
        window: FaultWindow,
        /// Multiplier on effective bandwidth, in `(0, 1)`.
        bandwidth_factor: f64,
    },
    /// [`Fault::SwitchDrop`] addressed by switch name.
    SwitchDrop {
        /// Switch name.
        switch: String,
        /// Misbehaviour interval.
        window: FaultWindow,
        /// Per-message drop probability while active.
        drop_probability: f64,
    },
    /// [`Fault::Straggler`] addressed by host name.
    Straggler {
        /// Host name.
        host: String,
        /// Throttling interval.
        window: FaultWindow,
        /// Multiplier on compute time, `> 1`.
        slowdown_factor: f64,
    },
    /// [`Fault::RankCrash`], unchanged: ranks are already stable names.
    RankCrash {
        /// The crashing rank.
        rank: u32,
        /// Time of death.
        at: SimTime,
    },
}

impl NamedFault {
    /// Resolves the named spelling onto the index-addressed [`Fault`].
    ///
    /// # Errors
    ///
    /// Any name that fails to resolve surfaces as the corresponding
    /// [`NameError`]; nothing resolves "approximately".
    pub fn resolve(&self, names: &ElementNames) -> Result<Fault, NameError> {
        Ok(match self {
            NamedFault::LinkDown { from, to, window } => Fault::LinkDown {
                link: names.link_index(from, to)?,
                window: *window,
            },
            NamedFault::LinkDegrade {
                from,
                to,
                window,
                bandwidth_factor,
            } => Fault::LinkDegrade {
                link: names.link_index(from, to)?,
                window: *window,
                bandwidth_factor: *bandwidth_factor,
            },
            NamedFault::SwitchDrop {
                switch,
                window,
                drop_probability,
            } => Fault::SwitchDrop {
                switch: names.switch_index(switch)?,
                window: *window,
                drop_probability: *drop_probability,
            },
            NamedFault::Straggler {
                host,
                window,
                slowdown_factor,
            } => Fault::Straggler {
                host: names.host_index(host)?,
                window: *window,
                slowdown_factor: *slowdown_factor,
            },
            NamedFault::RankCrash { rank, at } => Fault::RankCrash {
                rank: *rank,
                at: *at,
            },
        })
    }
}

impl FaultPlan {
    /// Builds a plan from name-addressed faults, resolving each against
    /// `names`. The result is an ordinary index-addressed plan: a
    /// name-spelled and an index-spelled plan for the same elements are
    /// `==` and replay bit-identically.
    ///
    /// # Errors
    ///
    /// Returns the first [`NameError`] hit, in fault order.
    pub fn from_named(
        seed: u64,
        named: &[NamedFault],
        names: &ElementNames,
    ) -> Result<FaultPlan, NameError> {
        let faults = named
            .iter()
            .map(|f| f.resolve(names))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan::from_faults(seed, faults))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_names() -> ElementNames {
        // One switch, two hosts, full-duplex edges — the smallest
        // topology with every element kind addressable.
        ElementNames::new(
            vec!["host0".into(), "host1".into()],
            vec!["sw0".into()],
            vec![
                ("host0".into(), "sw0".into()),
                ("sw0".into(), "host0".into()),
                ("host1".into(), "sw0".into()),
                ("sw0".into(), "host1".into()),
            ],
        )
        .expect("valid table")
    }

    fn window() -> FaultWindow {
        FaultWindow {
            start: SimTime::from_millis(1),
            end: SimTime::from_millis(5),
        }
    }

    #[test]
    fn every_variant_resolves_to_its_index_twin() {
        let names = star_names();
        let w = window();
        let cases: Vec<(NamedFault, Fault)> = vec![
            (
                NamedFault::LinkDown {
                    from: "host1".into(),
                    to: "sw0".into(),
                    window: w,
                },
                Fault::LinkDown { link: 2, window: w },
            ),
            (
                NamedFault::LinkDegrade {
                    from: "sw0".into(),
                    to: "host0".into(),
                    window: w,
                    bandwidth_factor: 0.25,
                },
                Fault::LinkDegrade {
                    link: 1,
                    window: w,
                    bandwidth_factor: 0.25,
                },
            ),
            (
                NamedFault::SwitchDrop {
                    switch: "sw0".into(),
                    window: w,
                    drop_probability: 0.1,
                },
                Fault::SwitchDrop {
                    switch: 0,
                    window: w,
                    drop_probability: 0.1,
                },
            ),
            (
                NamedFault::Straggler {
                    host: "host1".into(),
                    window: w,
                    slowdown_factor: 3.0,
                },
                Fault::Straggler {
                    host: 1,
                    window: w,
                    slowdown_factor: 3.0,
                },
            ),
            (
                NamedFault::RankCrash {
                    rank: 3,
                    at: SimTime::from_millis(2),
                },
                Fault::RankCrash {
                    rank: 3,
                    at: SimTime::from_millis(2),
                },
            ),
        ];
        for (named, indexed) in cases {
            assert_eq!(named.resolve(&names), Ok(indexed));
        }
    }

    #[test]
    fn from_named_equals_from_faults() {
        let names = star_names();
        let w = window();
        let named = FaultPlan::from_named(
            7,
            &[
                NamedFault::LinkDown {
                    from: "host0".into(),
                    to: "sw0".into(),
                    window: w,
                },
                NamedFault::Straggler {
                    host: "host1".into(),
                    window: w,
                    slowdown_factor: 2.0,
                },
            ],
            &names,
        )
        .expect("resolves");
        let indexed = FaultPlan::from_faults(
            7,
            vec![
                Fault::LinkDown { link: 0, window: w },
                Fault::Straggler {
                    host: 1,
                    window: w,
                    slowdown_factor: 2.0,
                },
            ],
        );
        assert_eq!(named, indexed);
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let names = star_names();
        let w = window();
        assert_eq!(
            names.link_index("host9", "sw0"),
            Err(NameError::UnknownLink {
                from: "host9".into(),
                to: "sw0".into(),
            })
        );
        // host1 -> host0 is no wired pair either.
        assert!(names.link_index("host1", "host0").is_err());
        assert_eq!(
            NamedFault::SwitchDrop {
                switch: "sw9".into(),
                window: w,
                drop_probability: 0.1,
            }
            .resolve(&names),
            Err(NameError::UnknownSwitch { name: "sw9".into() })
        );
        assert_eq!(
            NamedFault::Straggler {
                host: "sw0".into(), // a switch is not a host
                window: w,
                slowdown_factor: 2.0,
            }
            .resolve(&names),
            Err(NameError::UnknownHost { name: "sw0".into() })
        );
    }

    #[test]
    fn parallel_links_are_ambiguous_not_guessed() {
        let names = ElementNames::new(
            vec!["host0".into()],
            vec!["sw0".into()],
            vec![
                ("host0".into(), "sw0".into()),
                ("sw0".into(), "host0".into()),
                // A second cable between the same pair (802.3ad bond
                // modelled as parallel links).
                ("host0".into(), "sw0".into()),
                ("sw0".into(), "host0".into()),
            ],
        )
        .expect("valid table");
        assert_eq!(
            names.link_index("host0", "sw0"),
            Err(NameError::AmbiguousLink {
                from: "host0".into(),
                to: "sw0".into(),
                count: 2,
            })
        );
    }

    #[test]
    fn malformed_tables_are_rejected() {
        assert_eq!(
            ElementNames::new(
                vec!["n0".into()],
                vec!["n0".into()], // collides with the host
                vec![],
            ),
            Err(NameError::DuplicateName { name: "n0".into() })
        );
        assert_eq!(
            ElementNames::new(
                vec!["host0".into()],
                vec![],
                vec![("host0".into(), "ghost".into())],
            ),
            Err(NameError::UnknownEndpoint {
                name: "ghost".into(),
                link: 0,
            })
        );
    }
}
