//! Experiment scale: how much of the paper-size configuration to run.

use moat_workloads::GeneratorConfig;

/// How large to run the performance experiments.
///
/// Security experiments (Figs. 5, 7, 10, 15, 16) always run at full
/// fidelity — they are cheap counting loops. Performance experiments
/// sweep 21 workloads × many configurations, so the default scale
/// simulates a slice of the sub-channel and one refresh window; `full`
/// runs the paper-size configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Banks per simulated sub-channel.
    pub banks: u16,
    /// Refresh windows of virtual time per run.
    pub windows: u32,
}

impl Scale {
    /// Fast default: 2 banks, 1 tREFW (~seconds per table).
    pub const fn scaled() -> Self {
        Scale {
            banks: 2,
            windows: 1,
        }
    }

    /// Paper-size: 32 banks, 2 tREFW (minutes per table).
    pub const fn full() -> Self {
        Scale {
            banks: 32,
            windows: 2,
        }
    }

    /// The matching workload-generator configuration.
    pub fn generator(&self, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            banks: self.banks,
            windows: self.windows,
            seed,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::full().banks > Scale::scaled().banks);
        let g = Scale::scaled().generator(1);
        assert_eq!(g.banks, 2);
    }
}
