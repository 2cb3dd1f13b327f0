//! Appendix A: multi-AP selection is NP-hard (0-1 knapsack).
//!
//! The appendix motivates Spider's cheap join-history heuristic by
//! showing optimal subset selection is a knapsack. This experiment
//! quantifies the price of greediness: exact (DP/exhaustive) vs greedy
//! selection quality over random encounter sets, with the knapsack
//! construction of the proof (`V_i = T_i·W_i`, `C_i = T_i + ⌈T_i/T⌉·D_i`).

use spider_bench::{print_table, write_csv};
use spider_model::selection::{density_score, greedy_select, optimal_select, ApOption};
use spider_simcore::{sweep, OnlineStats, SimRng};

const TRIALS: u64 = 200;
const ROOT_SEED: u64 = 11;

fn main() {
    let budget = 30.0; // seconds of radio time on a road segment
    let groups = [4usize, 8, 12, 16];

    // One knapsack instance per job, each drawing from its own RNG
    // stream derived from one shared root — the instance depends only
    // on (group, trial), not on which worker ran the trials before it.
    let mut jobs = Vec::new();
    for &n_aps in &groups {
        for trial in 0..TRIALS {
            jobs.push((n_aps, trial));
        }
    }
    let root = SimRng::new(ROOT_SEED);
    let trials = sweep(&jobs, |&(n_aps, trial)| {
        let mut rng = root.stream_indexed("appendix-a", (n_aps as u64) * 1_000 + trial);
        let options: Vec<ApOption> = (0..n_aps)
            .map(|_| {
                let t_i = rng.uniform_in(2.0, 25.0); // time in range
                let w_i = rng.uniform_in(50_000.0, 1_000_000.0); // bytes/s
                let d_i = rng.uniform_in(0.1, 1.5); // join/switch overhead
                ApOption::from_encounter(t_i, w_i, d_i, budget)
            })
            .collect();
        let exact = optimal_select(&options, budget, 2_000);
        let greedy = greedy_select(&options, budget, density_score);
        let ratio = (exact.value > 0.0).then(|| greedy.value / exact.value);
        let exact_match = (greedy.value - exact.value).abs() < 1e-9;
        (ratio, exact_match)
    });

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (g, &n_aps) in groups.iter().enumerate() {
        let mut ratio = OnlineStats::new();
        let mut greedy_wins = 0u32;
        for &(r, exact_match) in &trials[g * TRIALS as usize..(g + 1) * TRIALS as usize] {
            if let Some(r) = r {
                ratio.push(r);
            }
            if exact_match {
                greedy_wins += 1;
            }
        }
        rows.push(vec![
            n_aps as f64,
            ratio.mean(),
            ratio.min(),
            greedy_wins as f64 / TRIALS as f64,
        ]);
        table.push(vec![
            format!("{n_aps}"),
            format!("{:.4}", ratio.mean()),
            format!("{:.4}", ratio.min()),
            format!("{:.1}%", 100.0 * greedy_wins as f64 / TRIALS as f64),
        ]);
    }
    print_table(
        "Appendix A: greedy selection quality vs exact knapsack optimum",
        &["APs", "mean(greedy/opt)", "worst", "exact matches"],
        &table,
    );
    let path = write_csv(
        "appendix_a.csv",
        &["n_aps", "mean_ratio", "worst_ratio", "exact_match_rate"],
        rows,
    );
    println!("\nwrote {}", path.display());
    println!(
        "\nThe greedy family Spider belongs to is near-optimal on realistic\n\
         encounter sets while running in O(n log n) — the appendix's point."
    );
}
