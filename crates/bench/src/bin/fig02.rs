//! Figure 2: probability of join success vs. fraction of time on the
//! channel — closed-form model (Eq. 7) against Monte-Carlo simulation,
//! for βmax = 5 s and 10 s.
//!
//! Paper parameters: D = 500 ms, t = 4 s, βmin = 500 ms, w = 7 ms,
//! c = 100 ms, h = 10 %; 100 runs × 100 trials per point.

use spider_bench::{print_table, write_csv};
use spider_model::{simulate_join_probability, JoinModel};
use spider_simcore::{sweep, SimRng};

const ROOT_SEED: u64 = 2;

fn main() {
    // One Monte-Carlo point per job, each with its own RNG stream
    // derived from one shared root, so the draw sequence is a function
    // of the point alone — not of how many points ran before it on the
    // same thread.
    let mut jobs = Vec::new();
    for beta_max in [5.0, 10.0] {
        for i in 1..=20u64 {
            jobs.push((beta_max, i));
        }
    }
    let root = SimRng::new(ROOT_SEED);
    let points = sweep(&jobs, |&(beta_max, i)| {
        let model = JoinModel::paper_defaults(beta_max);
        let fi = i as f64 / 20.0;
        let analytic = model.p_join(fi, 4.0);
        let mut rng = root.stream_indexed("fig02-point", (beta_max as u64) * 100 + i);
        let mc = simulate_join_probability(&model, fi, 4.0, 100, 100, &mut rng);
        (analytic, mc)
    });

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (&(beta_max, i), (analytic, mc)) in jobs.iter().zip(&points) {
        let fi = i as f64 / 20.0;
        rows.push(vec![beta_max, fi, *analytic, mc.mean, mc.std_dev]);
        if i % 4 == 0 {
            table.push(vec![
                format!("{beta_max}"),
                format!("{fi:.2}"),
                format!("{analytic:.3}"),
                format!("{:.3} ± {:.3}", mc.mean, mc.std_dev),
            ]);
        }
    }
    print_table(
        "Fig 2: p(join) vs fraction of time on channel (model vs simulation)",
        &["beta_max(s)", "f_i", "model", "simulation"],
        &table,
    );
    let path = write_csv(
        "fig02.csv",
        &["beta_max", "fi", "model", "sim_mean", "sim_sd"],
        rows,
    );
    println!("\nwrote {}", path.display());
}
