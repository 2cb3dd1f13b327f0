//! Byte pins for the two fault-plan generators.
//!
//! `plan_pins.txt` holds recorded draws of `FaultPlan::stormy` and of
//! `chaos_plan` under each `ChaosProfile` constructor, one episode per
//! line in its artifact JSON. Every recorded campaign report and corpus
//! artifact depends on these draws, and the back-loaded profile appears
//! in no golden file, so a change to either generator's constants or
//! draw order fails here first.

use spider_simcore::SimDuration;
use spider_workloads::campaign::{chaos_plan, ChaosProfile};
use spider_workloads::FaultPlan;

/// Every pinned plan as `<name> <episode JSON>` lines, the episode's
/// pretty JSON joined onto one line.
fn generated() -> String {
    let dur = SimDuration::from_secs(300);
    let chaos = |seed, profile: &ChaosProfile| chaos_plan(seed, 40, dur, profile);
    let plans = [
        ("stormy_seed99", FaultPlan::stormy(99, 40, dur)),
        ("standard_seed7", chaos(7, &ChaosProfile::standard())),
        ("standard_seed21", chaos(21, &ChaosProfile::standard())),
        ("adversarial_seed7", chaos(7, &ChaosProfile::adversarial())),
        (
            "adversarial_seed21",
            chaos(21, &ChaosProfile::adversarial()),
        ),
        (
            "back_loaded_seed7",
            chaos(7, &ChaosProfile::back_loaded(0.5)),
        ),
        (
            "back_loaded_seed21",
            chaos(21, &ChaosProfile::back_loaded(0.5)),
        ),
    ];
    let mut out = String::new();
    for (name, plan) in plans {
        for episode in &plan.episodes {
            let json: String = episode.to_json().pretty().lines().map(str::trim).collect();
            out += &format!("{name} {json}\n");
        }
    }
    out
}

#[test]
fn generators_draw_the_recorded_plans() {
    let want = include_str!("plan_pins.txt");
    let got = generated();
    if got != want {
        let line = want
            .lines()
            .zip(got.lines())
            .position(|(w, g)| w != g)
            .unwrap_or(want.lines().count().min(got.lines().count()))
            + 1;
        panic!("a generated plan left the recorded pin, first at line {line} of plan_pins.txt");
    }
}
