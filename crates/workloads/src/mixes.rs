//! The ten quad-core workload mixes of Table IV.

use crate::{benchmark, Benchmark};

/// A quad-core multi-programmed mix.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Mix name ("mix1" .. "mix10").
    pub name: &'static str,
    /// The four co-running benchmarks, by short name.
    pub members: [&'static str; 4],
}

impl Mix {
    /// Resolves the four member benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if a member name is not in the suite (impossible for the
    /// built-in mixes; guarded by tests).
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        self.members
            .iter()
            .map(|m| benchmark(m).unwrap_or_else(|| panic!("unknown mix member {m}")))
            .collect()
    }
}

/// The ten mixes exactly as listed in Table IV.
pub fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            name: "mix1",
            members: ["mcf", "hmmer", "libquantum", "omnetpp"],
        },
        Mix {
            name: "mix2",
            members: ["gobmk", "soplex", "libquantum", "lbm"],
        },
        Mix {
            name: "mix3",
            members: ["zeusmp", "leslie3d", "libquantum", "xalancbmk"],
        },
        Mix {
            name: "mix4",
            members: ["gamess", "cactusADM", "soplex", "libquantum"],
        },
        Mix {
            name: "mix5",
            members: ["bzip2", "gamess", "mcf", "sphinx3"],
        },
        Mix {
            name: "mix6",
            members: ["gcc", "calculix", "libquantum", "sphinx3"],
        },
        Mix {
            name: "mix7",
            members: ["perlbench", "milc", "hmmer", "lbm"],
        },
        Mix {
            name: "mix8",
            members: ["bzip2", "gcc", "gobmk", "lbm"],
        },
        Mix {
            name: "mix9",
            members: ["gamess", "mcf", "tonto", "xalancbmk"],
        },
        Mix {
            name: "mix10",
            members: ["milc", "namd", "sphinx3", "xalancbmk"],
        },
    ]
}

/// Looks a mix up by name.
pub fn mix(name: &str) -> Option<Mix> {
    mixes().into_iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_mixes_with_resolvable_members() {
        let all = mixes();
        assert_eq!(all.len(), 10);
        for m in &all {
            assert_eq!(m.benchmarks().len(), 4);
        }
    }

    #[test]
    fn mix1_matches_table_4() {
        let m = mix("mix1").unwrap();
        assert_eq!(m.members, ["mcf", "hmmer", "libquantum", "omnetpp"]);
    }

    #[test]
    fn unknown_mix_is_none() {
        assert!(mix("mix11").is_none());
    }

    #[test]
    fn mixes_cover_varied_cache_behaviour() {
        // Table IV deliberately mixes thrashing, friendly and insensitive
        // programs: at least one mix must contain an insensitive member.
        let any_insensitive = mixes()
            .iter()
            .flat_map(|m| m.benchmarks())
            .any(|b| !b.in_subset);
        assert!(any_insensitive);
    }
}
