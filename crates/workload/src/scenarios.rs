//! Named workload scenarios used by the examples and experiment harness.
//!
//! Beyond the Table I sweeps, the examples need a few *story-shaped*
//! workloads: a bursty overload spike (to show ASETS\* switching regimes
//! mid-run), a batch of personalized-page workflows shaped like the §II-B
//! stock example, and a starvation workload for the balance-aware demo.

use crate::gen::generate;
use crate::rng::Rng64;
use crate::spec::{SpecError, TableISpec, WorkflowParams};
use crate::zipf::Zipf;
use asets_core::time::{SimDuration, SimTime};
use asets_core::txn::{TxnId, TxnSpec, Weight};

/// A Table-I batch at `utilization` — the standard experiment input.
pub fn table_i(utilization: f64, seed: u64) -> Result<Vec<TxnSpec>, SpecError> {
    generate(&TableISpec::transaction_level(utilization), seed)
}

/// A workload with a deliberate **burst**: background Poisson traffic at
/// `base_util`, plus `burst_size` transactions dumped simultaneously at
/// mid-horizon with tight deadlines. Demonstrates the EDF domino effect and
/// ASETS\*'s mid-run adaptation (motivating Fig. 8–10 narrative).
pub fn bursty(base_util: f64, burst_size: usize, seed: u64) -> Result<Vec<TxnSpec>, SpecError> {
    let spec = TableISpec {
        n_txns: 400,
        ..TableISpec::transaction_level(base_util)
    };
    let mut specs = generate(&spec, seed)?;
    let mid = specs[specs.len() / 2].arrival;
    let mut rng = Rng64::new(seed ^ 0xB00B_5EED);
    for _ in 0..burst_size {
        let len = SimDuration::from_units_int(rng.range_u64(1, 20));
        // Tight deadlines: k in [0, 0.5].
        let k = rng.range_f64(0.0, 0.5);
        specs.push(TxnSpec {
            arrival: mid,
            deadline: mid + len + len.scale(k),
            length: len,
            weight: Weight::ONE,
            deps: Vec::new(),
        });
    }
    // Keep ids in arrival order (the generator's convention).
    specs.sort_by_key(|s| s.arrival);
    Ok(specs)
}

/// `n_pages` copies of the §II-B personalized stock page, one user logging
/// in after another every `gap` time units. Each page is the four-fragment
/// workflow of the paper:
///
/// * T_prices (all stock prices) — leaf;
/// * T_portfolio (join with user portfolio) — depends on T_prices;
/// * T_value (portfolio value aggregate) — depends on T_portfolio;
/// * T_alerts (user alert predicates) — depends on T_portfolio, with the
///   *earliest* deadline and the highest weight (the paper's
///   precedence/deadline conflict).
pub fn stock_pages(n_pages: usize, gap: SimDuration) -> Vec<TxnSpec> {
    let mut specs = Vec::with_capacity(n_pages * 4);
    for p in 0..n_pages {
        let login = SimTime::ZERO + gap * p as u64;
        let base = (p * 4) as u32;
        let mk = |dl_units: u64, len_units: u64, w: u32, deps: Vec<TxnId>| TxnSpec {
            arrival: login,
            deadline: login + SimDuration::from_units_int(dl_units),
            length: SimDuration::from_units_int(len_units),
            weight: Weight(w),
            deps,
        };
        specs.push(mk(40, 8, 2, vec![])); // T_prices
        specs.push(mk(35, 6, 3, vec![TxnId(base)])); // T_portfolio
        specs.push(mk(50, 4, 4, vec![TxnId(base + 1)])); // T_value
        specs.push(mk(22, 2, 9, vec![TxnId(base + 1)])); // T_alerts: urgent + heavy
    }
    specs
}

/// A starvation-prone workload for the balance-aware demo: a steady stream
/// of short cheap transactions that SRPT/HDF always prefer, plus a few
/// long, heavy, deadline-urgent transactions that starve without aging.
pub fn starvation(n_short: usize, n_long: usize, seed: u64) -> Vec<TxnSpec> {
    let mut rng = Rng64::new(seed);
    let mut specs = Vec::with_capacity(n_short + n_long);
    let mut t = SimTime::ZERO;
    for _ in 0..n_short {
        t += SimDuration::from_units(rng.range_f64(0.5, 1.5));
        let len = SimDuration::from_units_int(1);
        specs.push(TxnSpec {
            arrival: t,
            deadline: t + len + len.scale(1.0),
            length: len,
            weight: Weight(1),
            deps: Vec::new(),
        });
    }
    let horizon = t;
    for i in 0..n_long {
        let arr = SimTime::ZERO + horizon.since_origin() * i as u64 / (n_long.max(1) as u64 * 2);
        let len = SimDuration::from_units_int(40);
        specs.push(TxnSpec {
            arrival: arr,
            deadline: arr + len + len.scale(0.25),
            length: len,
            weight: Weight(10),
            deps: Vec::new(),
        });
    }
    specs.sort_by_key(|s| s.arrival);
    specs
}

/// Transform a workflow batch to **page-at-once submission**: every
/// transaction's arrival is pulled back to the earliest arrival among its
/// transitive predecessors (the §II-B model where "all transactions are
/// submitted to the database as the user logs onto the system"), and its
/// deadline shifts by the same amount so the `(1 + k)·l` window is
/// preserved.
///
/// Used by the submission-model ablation: with per-transaction Poisson
/// arrivals (Table I as written) dependents often have not arrived when
/// their predecessors run, muting the representative boost; page-at-once
/// makes the whole workflow visible immediately but creates structurally
/// unreachable deadlines for deep members.
pub fn submit_pages_together(specs: &mut [TxnSpec]) {
    for i in 0..specs.len() {
        let mut earliest = specs[i].arrival;
        let mut stack: Vec<TxnId> = specs[i].deps.clone();
        while let Some(d) = stack.pop() {
            earliest = earliest.min(specs[d.index()].arrival);
            stack.extend_from_slice(&specs[d.index()].deps);
        }
        if earliest < specs[i].arrival {
            let shift = specs[i].arrival - earliest;
            specs[i].arrival = earliest;
            specs[i].deadline = specs[i].deadline - shift;
        }
    }
}

/// `n` transactions arranged as dependency chains of `chain_len` members:
/// each chain is one workflow whose member count *is* `chain_len`, so the
/// per-event rescan cost grows linearly with it while the indexed cost only
/// gains a log factor. Chains are *interleaved* across the id space (member
/// `m` of chain `c` is transaction `m·C + c`), the way concurrent sessions'
/// transactions actually arrive in a web database — so a member rescan
/// strides through the whole table instead of walking a contiguous (and
/// cache-resident) block. Arrivals are staggered per chain and slacks vary
/// so workflows keep crossing between the EDF and HDF lists (migrations,
/// requeues and releases all fire).
///
/// This is also the scale-out workload: `n / chain_len` independent chains
/// are exactly `n / chain_len` routing components for the sharded runtime,
/// so K shards receive near-equal loads (see [`shard_loads`]). Generation is
/// RNG-free (a SplitMix64 finalizer keyed by index) and byte-stable across
/// versions — the overhead benches gate regressions against recorded
/// baselines on this exact batch.
pub fn deep_chains(n: usize, chain_len: usize) -> Vec<TxnSpec> {
    // SplitMix64 finalizer — deterministic pseudo-randomization by index.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    let n_chains = n / chain_len;
    (0..n)
        .map(|i| {
            let chain = i % n_chains;
            let pos = i / n_chains;
            let h = mix(i as u64);
            let arrival = SimTime::from_units_int((chain % 64) as u64);
            let length = SimDuration::from_units_int(1 + h % 8);
            let slack = SimDuration::from_units_int((h >> 8) % 60);
            TxnSpec {
                arrival,
                deadline: arrival + length + slack,
                length,
                weight: Weight(1 + (h >> 16) as u32 % 9),
                deps: if pos == 0 {
                    vec![]
                } else {
                    vec![TxnId((i - n_chains) as u32)]
                },
            }
        })
        .collect()
}

/// Transactions per shard under the sharded runtime's placement
/// (`asets_core::shard::partition`) — the workload-side view of how a batch
/// would spread over `k` shards. Generators use this to check a scale-out
/// workload actually balances before burning simulation time on it.
pub fn shard_loads(specs: &[TxnSpec], k: usize) -> Vec<usize> {
    asets_core::shard::partition(specs, k)
        .slices
        .iter()
        .map(|s| s.len())
        .collect()
}

/// A Zipf-skewed web workload shaped to stress shard placement: `n`
/// transactions are sessions against `pages` pages whose popularity follows
/// `Zipf(pages, alpha)`.
///
/// *Hot* pages — pmf above `1.5 / pages`, i.e. noticeably more popular than
/// uniform — are "cached": every session against one shares a single root
/// transaction (the cache fill, length 1 at t = 0), so a hot page is one
/// routing component that is **big by member count but light by work**.
/// *Cold* pages render from scratch: each session is an independent
/// **heavy singleton** (length 20–50). Arrivals spread over `[0, n/2)` so a
/// run interleaves in-flight backlog with still-future components.
///
/// The point of the shape: the sharded runtime's LPT placement balances
/// *member counts*, so at high `alpha` one shard swallows the hottest page's
/// huge-but-light star while the heavy singletons crowd the rest — exactly
/// the skew that epoch migration exists to fix. At
/// `alpha = 0` the pmf is exactly `1/pages`, **no** page clears the hot
/// threshold, and the batch degenerates to uniform independent singletons
/// on which static placement is already near-optimal (the no-regression
/// side of the `rebalance_gate` check).
///
/// Deterministic for a given `(n, pages, alpha, seed)`.
///
/// # Panics
/// If `pages == 0` or `alpha` is not finite and non-negative (per
/// [`Zipf::new`]).
pub fn skewed_shards(n: usize, pages: u64, alpha: f64, seed: u64) -> Vec<TxnSpec> {
    let zipf = Zipf::new(pages, alpha);
    let mut rng = Rng64::new(seed ^ 0x5CA1_ED5E_ED5E_ED00);
    let hot: Vec<bool> = (1..=pages)
        .map(|p| zipf.pmf(p) > 1.5 / pages as f64)
        .collect();
    let horizon = (n as u64 / 2).max(1);
    let mut specs = Vec::with_capacity(n);
    // Cache-fill roots first, so a star's routing key is its root id.
    let mut root_of: Vec<Option<u32>> = vec![None; pages as usize];
    for p in 0..pages as usize {
        if hot[p] && specs.len() < n {
            let length = SimDuration::from_units_int(1);
            root_of[p] = Some(specs.len() as u32);
            specs.push(TxnSpec {
                arrival: SimTime::ZERO,
                deadline: SimTime::ZERO + length + SimDuration::from_units_int(50),
                length,
                weight: Weight::ONE,
                deps: vec![],
            });
        }
    }
    while specs.len() < n {
        let page = (zipf.sample(&mut rng) - 1) as usize;
        let arrival = SimTime::from_units_int(rng.range_u64(0, horizon - 1));
        let weight = Weight(1 + rng.range_u64(0, 4) as u32);
        specs.push(if let Some(root) = root_of[page] {
            // Cached page: a light session hanging off the shared root.
            let length = SimDuration::from_units_int(rng.range_u64(1, 2));
            let slack = SimDuration::from_units_int(rng.range_u64(5, 40));
            TxnSpec {
                arrival,
                deadline: arrival + length + slack,
                length,
                weight,
                deps: vec![TxnId(root)],
            }
        } else {
            // Cold page: render from scratch, alone.
            let length = SimDuration::from_units_int(rng.range_u64(20, 50));
            let slack = SimDuration::from_units_int(rng.range_u64(10, 80));
            TxnSpec {
                arrival,
                deadline: arrival + length + slack,
                length,
                weight,
                deps: vec![],
            }
        });
    }
    specs
}

/// The full §IV-A workflow sweep grid the paper mentions ("varied the
/// maximum workflow length from three to ten, and ... number of workflows
/// from one to ten").
pub fn workflow_grid() -> Vec<WorkflowParams> {
    let mut grid = Vec::new();
    for max_len in 3..=10 {
        for max_workflows in 1..=10 {
            grid.push(WorkflowParams {
                max_len,
                max_workflows,
            });
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use asets_core::dag::DepDag;

    #[test]
    fn table_i_shape() {
        let specs = table_i(0.5, 1).unwrap();
        assert_eq!(specs.len(), 1000);
    }

    #[test]
    fn bursty_has_a_simultaneous_spike() {
        let specs = bursty(0.3, 50, 2).unwrap();
        assert_eq!(specs.len(), 450);
        // Some instant carries at least 50 arrivals.
        let mut best = 0;
        let mut run = 1;
        for w in specs.windows(2) {
            if w[0].arrival == w[1].arrival {
                run += 1;
                best = best.max(run);
            } else {
                run = 1;
            }
        }
        assert!(best >= 50, "burst of {best}");
    }

    #[test]
    fn stock_pages_realize_the_paper_conflict() {
        let specs = stock_pages(3, SimDuration::from_units_int(10));
        assert_eq!(specs.len(), 12);
        DepDag::build(&specs).unwrap();
        for p in 0..3usize {
            let base = p * 4;
            let alerts = &specs[base + 3];
            let prices = &specs[base];
            // Alerts depend (transitively) on prices yet deadline is earlier.
            assert!(alerts.deadline < prices.deadline);
            assert!(alerts.weight > prices.weight);
            assert_eq!(alerts.deps, vec![TxnId(base as u32 + 1)]);
        }
    }

    #[test]
    fn starvation_mixes_short_and_long() {
        let specs = starvation(100, 3, 3);
        assert_eq!(specs.len(), 103);
        let long = specs.iter().filter(|s| s.length.as_units() > 10.0).count();
        assert_eq!(long, 3);
        for w in specs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "sorted by arrival");
        }
    }

    #[test]
    fn submit_together_aligns_chains() {
        let mut specs = vec![
            TxnSpec::independent(
                SimTime::from_units_int(10),
                SimTime::from_units_int(30),
                SimDuration::from_units_int(5),
                Weight::ONE,
            ),
            TxnSpec {
                deps: vec![TxnId(0)],
                ..TxnSpec::independent(
                    SimTime::from_units_int(25),
                    SimTime::from_units_int(60),
                    SimDuration::from_units_int(5),
                    Weight::ONE,
                )
            },
        ];
        submit_pages_together(&mut specs);
        assert_eq!(
            specs[1].arrival,
            SimTime::from_units_int(10),
            "pulled to leaf arrival"
        );
        assert_eq!(
            specs[1].deadline,
            SimTime::from_units_int(45),
            "window preserved"
        );
        assert_eq!(
            specs[0].arrival,
            SimTime::from_units_int(10),
            "leaf unchanged"
        );
    }

    #[test]
    fn submit_together_handles_diamonds() {
        let mk = |a: u64, deps: Vec<TxnId>| TxnSpec {
            deps,
            ..TxnSpec::independent(
                SimTime::from_units_int(a),
                SimTime::from_units_int(a + 10),
                SimDuration::from_units_int(2),
                Weight::ONE,
            )
        };
        let mut specs = vec![
            mk(5, vec![]),
            mk(8, vec![TxnId(0)]),
            mk(3, vec![]),
            mk(20, vec![TxnId(1), TxnId(2)]),
        ];
        submit_pages_together(&mut specs);
        // T3's earliest transitive predecessor arrival is T2's (3).
        assert_eq!(specs[3].arrival, SimTime::from_units_int(3));
        assert_eq!(specs[1].arrival, SimTime::from_units_int(5));
    }

    #[test]
    fn deep_chains_links_interleaved_chains() {
        let specs = deep_chains(1_000, 100);
        assert_eq!(specs.len(), 1_000);
        let n_chains = 10;
        // Chain heads have no deps; every later member depends on the
        // transaction one stride back (same chain, previous position).
        for (i, s) in specs.iter().enumerate() {
            if i < n_chains {
                assert!(s.deps.is_empty(), "T{i} should be a chain head");
            } else {
                assert_eq!(s.deps, vec![TxnId((i - n_chains) as u32)]);
            }
        }
        DepDag::build(&specs).unwrap();
    }

    #[test]
    fn deep_chains_balance_across_shards() {
        // 10 chains over 4 shards: LPT gives 3/3/2/2 chains, i.e. 300/300/
        // 200/200 transactions — within one chain of perfectly even.
        let specs = deep_chains(1_000, 100);
        let loads = shard_loads(&specs, 4);
        assert_eq!(loads.iter().sum::<usize>(), 1_000);
        assert_eq!(loads.len(), 4);
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(max - min <= 100, "loads {loads:?} differ by over one chain");
        // K=1 is the identity placement.
        assert_eq!(shard_loads(&specs, 1), vec![1_000]);
    }

    #[test]
    fn skewed_shards_builds_hot_stars_and_cold_singletons() {
        let specs = skewed_shards(2_000, 32, 2.0, 7);
        assert_eq!(specs.len(), 2_000);
        DepDag::build(&specs).unwrap();
        // Roots are the zero-arrival length-1 prefix; at alpha = 2 the
        // Zipf head holds most of the mass, so a handful of pages clear
        // the hot threshold.
        let n_roots = specs.iter().take_while(|s| s.deps.is_empty()).count();
        assert!(
            (1..=8).contains(&n_roots),
            "unexpected root count {n_roots}"
        );
        let mut star_members = vec![0usize; n_roots];
        let mut singletons = 0usize;
        for s in specs.iter().skip(n_roots) {
            match s.deps.as_slice() {
                [] => {
                    singletons += 1;
                    assert!(s.length >= SimDuration::from_units_int(20));
                }
                [TxnId(r)] => {
                    star_members[*r as usize] += 1;
                    assert!(s.length <= SimDuration::from_units_int(2));
                }
                other => panic!("session with {} deps", other.len()),
            }
        }
        // The hottest page's star dwarfs everything; heavy singletons
        // still carry almost all the work.
        assert!(
            star_members[0] > 500,
            "hot star too small: {star_members:?}"
        );
        assert!(singletons > 100, "too few cold singletons: {singletons}");
        let star_count: usize = star_members.iter().sum();
        assert!(star_count + singletons + n_roots == 2_000);
        // Count-based LPT misplaces this badly: the max-count shard holds
        // far more members than its share of the *work*.
        let loads = shard_loads(&specs, 4);
        let max = *loads.iter().max().unwrap();
        assert!(max > 600, "expected a count-heavy shard, got {loads:?}");
    }

    #[test]
    fn skewed_shards_uniform_alpha_degenerates_to_singletons() {
        let specs = skewed_shards(1_000, 32, 0.0, 7);
        assert_eq!(specs.len(), 1_000);
        assert!(
            specs.iter().all(|s| s.deps.is_empty()),
            "no stars at alpha=0"
        );
        let loads = shard_loads(&specs, 4);
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(max - min <= 1, "uniform batch should balance: {loads:?}");
    }

    #[test]
    fn skewed_shards_is_deterministic_per_seed() {
        assert_eq!(
            skewed_shards(500, 16, 1.5, 3),
            skewed_shards(500, 16, 1.5, 3)
        );
        assert_ne!(
            skewed_shards(500, 16, 1.5, 3),
            skewed_shards(500, 16, 1.5, 4)
        );
    }

    #[test]
    fn workflow_grid_is_the_paper_sweep() {
        let grid = workflow_grid();
        assert_eq!(grid.len(), 80);
        assert!(grid.contains(&WorkflowParams {
            max_len: 5,
            max_workflows: 1
        }));
        assert!(grid.contains(&WorkflowParams {
            max_len: 10,
            max_workflows: 10
        }));
    }
}
