//! Layer timings shared by more than one workload.

use crate::stats::{p25, time_calls};
use crate::trace::Tracer;
use liair::md::MdCheckpoint;
use liair::prelude::*;
use liair::runtime::CommConfig;
use liair::scf::{Method, ScfSession};
use std::time::Instant;

/// Collectives per timed region, each moving an 80-byte payload.
const OPS: usize = 1000;
const REGIONS: usize = 5;

/// `runtime`: launching a 2-rank SPMD region, and one gather / allreduce of
/// an 80-byte payload inside a running region.
pub fn runtime_spmd(tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let cfg = CommConfig::default();
    let launch = tr.span("runtime.spmd_launch_s", |_| {
        time_calls(200, || {
            run_spmd_cfg(2, cfg, |_| ()).expect("empty region");
        })
    });
    // Rank 0's clock around `OPS` back-to-back collectives, per collective.
    let per_op = |body: &(dyn Fn(&dyn Comm) + Sync)| {
        let regions: Vec<f64> = (0..REGIONS)
            .map(|_| {
                let run = run_spmd_cfg(2, cfg, |c| {
                    let t = Instant::now();
                    for _ in 0..OPS {
                        body(c);
                    }
                    t.elapsed().as_secs_f64() / OPS as f64
                })
                .expect("fault-free region");
                run.results[0]
            })
            .collect();
        p25(&regions)
    };
    let gather = tr.span("runtime.gather_2r_s", |_| {
        per_op(&|c| {
            c.gather(0, vec![1.0; 10]).expect("fault-free gather");
        })
    });
    let allreduce = tr.span("runtime.allreduce_2r_s", |_| {
        per_op(&|c| {
            c.allreduce_sum(&mut [1.0; 10])
                .expect("fault-free allreduce");
        })
    });
    vec![
        ("runtime.spmd_launch_s", launch),
        ("runtime.gather_2r_s", gather),
        ("runtime.allreduce_2r_s", allreduce),
    ]
}

/// `md`: capture → bytes → restore of a two-water box state, the round trip
/// a preempted MD job makes. Returns (seconds, bytes).
pub fn md_checkpoint_roundtrip(tr: &mut Tracer) -> (f64, f64) {
    let (mol, cell) = systems::water_box(2, 7);
    let ff = ForceField::from_molecule(&mol, Some(&cell));
    let state = MdState::new(mol, Some(cell), &ff);
    let mut bytes = 0;
    let t = tr.span("md.checkpoint_roundtrip_s", |_| {
        time_calls(200, || {
            let b = MdCheckpoint::capture(&state).to_bytes();
            bytes = b.len();
            let back = MdCheckpoint::from_bytes(&b).expect("own bytes decode");
            std::hint::black_box(back.restore());
        })
    });
    (t, bytes as f64)
}

/// `scf`: checkpoint → resume of a LiH session three iterations in, the
/// round trip a preempted SCF job makes. Returns (seconds, bytes).
pub fn scf_checkpoint_roundtrip(tr: &mut Tracer) -> (f64, f64) {
    let mol = systems::lih();
    let basis = Basis::sto3g(&mol);
    let mut session = ScfSession::new(&mol, &basis, &ScfOptions::default(), Method::Rhf);
    for _ in 0..3 {
        session.step();
    }
    let mut bytes = 0;
    let t = tr.span("scf.checkpoint_roundtrip_s", |_| {
        time_calls(200, || {
            let ck = session.checkpoint();
            bytes = ck.bytes.len();
            std::hint::black_box(ScfSession::resume(&mol, &basis, &ck).expect("own bytes decode"));
        })
    });
    (t, bytes as f64)
}
