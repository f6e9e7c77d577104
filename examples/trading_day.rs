//! A hand-built scenario: a trading system's main-memory RTDB.
//!
//! ```text
//! cargo run --release --example trading_day
//! ```
//!
//! Three transaction classes share 40 instrument records:
//!
//! * **quote updates** — tiny (2 updates), tight deadlines, frequent;
//! * **order matches** — medium (8 updates), moderate deadlines;
//! * **portfolio rebalances** — long (25 updates), loose deadlines.
//!
//! The mix stresses exactly the situation §3.2 motivates: under EDF-HP an
//! urgent quote update arriving mid-rebalance aborts the rebalance and
//! throws away a long prefix of work; CCA prices that loss and often lets
//! the rebalance finish first. The example builds the workload by hand
//! with [`ReplaySource`] and compares the policies at rising load.

use rtx::policies::{Cca, EdfHp};
use rtx::preanalysis::{ItemId, TypeId};
use rtx::rtdb::{run_simulation_from, Policy, ReplaySource, SimConfig, Transaction, TxnId};
use rtx::sim::dist::{exponential, sample_distinct, uniform_range};
use rtx::sim::rng::StreamSeeder;
use rtx::sim::{SimDuration, SimTime};

const DB_SIZE: u64 = 40;

struct Class {
    updates: usize,
    update_ms: f64,
    slack: (f64, f64),
    share: f64, // fraction of arrivals
}

const CLASSES: [Class; 3] = [
    Class {
        updates: 2,
        update_ms: 1.0,
        slack: (0.5, 2.0),
        share: 0.6,
    }, // quote
    Class {
        updates: 8,
        update_ms: 2.0,
        slack: (1.0, 4.0),
        share: 0.3,
    }, // match
    Class {
        updates: 25,
        update_ms: 4.0,
        slack: (3.0, 10.0),
        share: 0.1,
    }, // rebalance
];

fn build_day(rate_tps: f64, n: usize, seed: u64) -> Vec<Transaction> {
    let seeder = StreamSeeder::new(seed);
    let mut arr = seeder.stream("arrivals");
    let mut pick = seeder.stream("class");
    let mut items_rng = seeder.stream("items");
    let mut slack_rng = seeder.stream("slack");
    let mut clock = SimTime::ZERO;
    (0..n)
        .map(|i| {
            clock += SimDuration::from_secs(exponential(&mut arr, 1.0 / rate_tps));
            // Pick a class by share.
            let u = rtx::sim::dist::uniform_unit(&mut pick);
            let mut acc = 0.0;
            let mut class = &CLASSES[0];
            for c in &CLASSES {
                acc += c.share;
                if u < acc {
                    class = c;
                    break;
                }
            }
            let items: Vec<ItemId> = sample_distinct(&mut items_rng, DB_SIZE, class.updates)
                .into_iter()
                .map(|x| ItemId(x as u32))
                .collect();
            let update_time = SimDuration::from_ms(class.update_ms);
            let resource_time = update_time * items.len() as u64;
            let slack = uniform_range(&mut slack_rng, class.slack.0, class.slack.1);
            Transaction {
                id: TxnId(i as u32),
                ty: TypeId(CLASSES.iter().position(|c| std::ptr::eq(c, class)).unwrap() as u32),
                arrival: clock,
                deadline: clock + resource_time.scale(1.0 + slack),
                resource_time,
                might_access: items.iter().copied().collect(),
                items,
                update_time,
                ..Default::default()
            }
        })
        .collect()
}

fn run(rate: f64, policy: &dyn Policy, seeds: u64) -> (f64, f64, f64) {
    // The engine config only needs the resource model; arrival/type fields
    // are bypassed by the custom source.
    let mut cfg = SimConfig::mm_base();
    cfg.workload.db_size = DB_SIZE;
    cfg.system.abort_cost_ms = 2.0;
    let n = 600;
    let (mut miss, mut late, mut restarts) = (0.0, 0.0, 0.0);
    for seed in 0..seeds {
        let txns = build_day(rate, n, seed);
        let mut source = ReplaySource::new(txns);
        let s = run_simulation_from(&cfg, policy, &mut source, n);
        miss += s.miss_percent;
        late += s.mean_lateness_ms;
        restarts += s.restarts_per_txn;
    }
    let k = seeds as f64;
    (miss / k, late / k, restarts / k)
}

fn main() {
    println!("Trading-day scenario: 60% quotes / 30% matches / 10% rebalances");
    println!("over a {DB_SIZE}-record instrument table, 600 txns x 5 seeds\n");
    println!(
        "{:>9}  {:>21}  {:>21}  {:>19}",
        "load", "miss % (EDF | CCA)", "lateness ms (EDF|CCA)", "restarts (EDF|CCA)"
    );
    println!("{}", "-".repeat(78));
    for rate in [20.0, 40.0, 60.0, 80.0] {
        let edf = run(rate, &EdfHp, 5);
        let cca = run(rate, &Cca::base(), 5);
        println!(
            "{:>6} tps  {:>9.2} | {:>9.2}  {:>9.1} | {:>9.1}  {:>8.3} | {:>8.3}",
            rate, edf.0, cca.0, edf.1, cca.1, edf.2, cca.2
        );
    }
    println!(
        "\nCCA protects the long rebalances' completed work from urgent \
         quote bursts,\ncutting restarts and the lateness tail."
    );
}
