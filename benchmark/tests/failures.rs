//! A unit whose correctness check fails, or that panics, is counted as
//! failed and makes the run incorrect.

use liair_benchmark::json::Value;
use liair_benchmark::runner::{aggregate, result_line, run_units, Trial, TrialPlan};
use liair_benchmark::trace::Tracer;
use liair_benchmark::workloads::Workload;

/// Sums 1..=n each unit and compares with `reference`.
struct Summing {
    reference: u64,
    last: u64,
    panic_on: Option<usize>,
    units: usize,
}

impl Workload for Summing {
    fn unit(&mut self, _: &mut Tracer) {
        self.units += 1;
        if self.panic_on == Some(self.units) {
            panic!("injected");
        }
        self.last = (1..=100u64).sum();
    }

    fn check(&self) -> Result<(), String> {
        if self.last == self.reference {
            Ok(())
        } else {
            Err(format!(
                "sum {} is not the reference {}",
                self.last, self.reference
            ))
        }
    }

    fn layers(&mut self, _: &mut Tracer, _: f64) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

fn run(w: &mut Summing, units: usize) -> Trial {
    let plan = TrialPlan {
        budget_s: 0.0,
        min_units: units,
    };
    let mut trial = Trial {
        pinned: true,
        ..Trial::default()
    };
    run_units(w, &mut Tracer::off(), plan, &mut trial);
    trial
}

#[test]
fn a_wrong_reference_fails_every_unit() {
    let mut good = Summing {
        reference: 5050,
        last: 0,
        panic_on: None,
        units: 0,
    };
    let mut bad = Summing {
        reference: 5051,
        last: 0,
        panic_on: None,
        units: 0,
    };
    let (good, bad) = (run(&mut good, 6), run(&mut bad, 6));
    assert_eq!(
        (good.unit_s.len(), good.failed, &good.first_error),
        (6, 0, &None)
    );
    assert_eq!((bad.unit_s.len(), bad.failed), (6, 6));
    assert_eq!(
        bad.first_error.as_deref(),
        Some("sum 5050 is not the reference 5051")
    );

    // failed_frac = 6 / 18 over the run, and the run is not correct.
    let run = aggregate(&[good.clone(), bad, good], None);
    assert_eq!((run.attempted, run.failed), (18, 6));
    let line = result_line(&run, false);
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(line.get("failed").and_then(Value::as_f64), Some(6.0));
}

#[test]
fn a_panicking_unit_is_one_failed_unit_and_the_trial_goes_on() {
    let mut w = Summing {
        reference: 5050,
        last: 5050,
        panic_on: Some(2),
        units: 0,
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| ()));
    let trial = run(&mut w, 4);
    std::panic::set_hook(hook);
    assert_eq!((trial.unit_s.len(), trial.failed), (4, 1));
    assert_eq!(trial.first_error.as_deref(), Some("unit panicked"));
}

#[test]
fn a_trial_runs_until_both_the_budget_and_the_unit_count_are_met() {
    let mut w = Summing {
        reference: 5050,
        last: 0,
        panic_on: None,
        units: 0,
    };
    let plan = TrialPlan {
        budget_s: 0.02,
        min_units: 3,
    };
    let mut trial = Trial::default();
    run_units(&mut w, &mut Tracer::off(), plan, &mut trial);
    assert!(
        trial.unit_s.len() > 3,
        "a microsecond unit fits many times into 20 ms"
    );
    assert!(trial.unit_s.iter().sum::<f64>() >= 0.02);
}
