//! The experiment registry: one entry per paper table/figure plus the
//! ablations DESIGN.md calls out.

mod ablations;
mod dataset_exps;
mod defs;
mod model_exps;
mod precursors;
mod robustness;
mod tune;

use crate::ctx::Ctx;

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI id (`repro <id>`).
    pub id: &'static str,
    /// Human-readable title (paper artefact it reproduces).
    pub title: &'static str,
    /// Entry point; returns the machine-readable result.
    pub run: fn(&Ctx) -> serde_json::Value,
}

/// Every registered experiment, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table I: RaSRF failure taxonomy",
            run: dataset_exps::table1,
        },
        Experiment {
            id: "table2",
            title: "Table II: SMART attributes",
            run: defs::table2,
        },
        Experiment {
            id: "table3",
            title: "Table III: WindowsEvent logs",
            run: defs::table3,
        },
        Experiment {
            id: "table4",
            title: "Table IV: BlueScreenOfDeath logs",
            run: defs::table4,
        },
        Experiment {
            id: "table5",
            title: "Table V: feature groups",
            run: defs::table5,
        },
        Experiment {
            id: "table6",
            title: "Table VI: dataset populations and replacement rates",
            run: dataset_exps::table6,
        },
        Experiment {
            id: "fig2",
            title: "Fig 2: failure distribution over power-on hours (bathtub)",
            run: dataset_exps::fig2,
        },
        Experiment {
            id: "fig3",
            title: "Fig 3: failure rate per firmware version",
            run: dataset_exps::fig3,
        },
        Experiment {
            id: "fig4",
            title: "Fig 4: cumulative W_161 for healthy vs faulty drives",
            run: precursors::fig4,
        },
        Experiment {
            id: "fig5",
            title: "Fig 5: cumulative B_50 for healthy vs faulty drives",
            run: precursors::fig5,
        },
        Experiment {
            id: "fig6",
            title: "Fig 6: telemetry discontinuity of faulty drives",
            run: dataset_exps::fig6,
        },
        Experiment {
            id: "fig7",
            title: "Fig 7 / §III-C(2): θ sensitivity of failure-time labelling",
            run: model_exps::fig7,
        },
        Experiment {
            id: "fig8",
            title: "Fig 8: timepoint split + time-series CV vs naive variants",
            run: model_exps::fig8,
        },
        Experiment {
            id: "fig9",
            title: "Fig 9/13: feature-group comparison",
            run: model_exps::fig9,
        },
        Experiment {
            id: "fig10",
            title: "Fig 10/14: algorithm portability",
            run: model_exps::fig10,
        },
        Experiment {
            id: "fig11",
            title: "Fig 11/15: vendor portability",
            run: model_exps::fig11,
        },
        Experiment {
            id: "fig12",
            title: "Fig 12/16: temporal stability without retraining",
            run: model_exps::fig12,
        },
        Experiment {
            id: "fig17",
            title: "Fig 17: sequential forward selection",
            run: model_exps::fig17,
        },
        Experiment {
            id: "fig18",
            title: "Fig 18: MFPA vs state-of-the-art baselines",
            run: model_exps::fig18,
        },
        Experiment {
            id: "fig19",
            title: "Fig 19: lookahead-window sweep",
            run: model_exps::fig19,
        },
        Experiment {
            id: "fig20",
            title: "Fig 20: per-stage overhead",
            run: model_exps::fig20,
        },
        Experiment {
            id: "tune",
            title: "§III-C(4): grid search with time-series CV",
            run: tune::tune,
        },
        Experiment {
            id: "ablate-gaps",
            title: "Ablation: gap-drop / gap-fill constants",
            run: ablations::ablate_gaps,
        },
        Experiment {
            id: "ablate-cumsum",
            title: "Ablation: cumulative vs daily W/B counters",
            run: ablations::ablate_cumsum,
        },
        Experiment {
            id: "ablate-ratio",
            title: "Ablation: under-sampling ratio",
            run: ablations::ablate_ratio,
        },
        Experiment {
            id: "ablate-window",
            title: "Ablation: positive-window length",
            run: ablations::ablate_window,
        },
        Experiment {
            id: "robustness",
            title: "Robustness: fault injection × sanitization",
            run: robustness::robustness,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_unique() {
        let mut ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all_experiments().len());
    }

    #[test]
    fn covers_every_paper_artifact() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for required in [
            "table1", "table2", "table3", "table4", "table5", "table6", "fig2", "fig3", "fig4",
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig17", "fig18",
            "fig19", "fig20",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }
}
