//! The two batch workloads: every call is submitted before the pool
//! starts, so there is no arrival schedule and latency is on-CPU time.
//!
//! * `classic_wide` — one worker on the classic per-call path over
//!   thousands of worlds: the world-table caches miss, the epoch table
//!   evicts and refaults, working-set touches overflow the TLB, and the
//!   bench thread registers and deletes worlds beside the pool.
//! * `switchless_hot` — two workers, adaptive switchless channels on
//!   eight worlds, skewed small calls: resident drains carry most calls
//!   and every table lookup hits.

use crossover::world::Wid;
use hypervisor::vm::VmConfig;
use machine::rng::{SplitMix64, Zipf};
use obs::config::ObsConfig;
use runtime::{
    CallRequest, CallVerdict, RuntimeConfig, ServiceReport, SwitchlessConfig, WorldCallService,
};
use std::collections::VecDeque;

use crate::alloc::Phase;
use crate::metrics::{
    causal_layers, check_conservation, not_completed, service_layers, service_virtual, HostCost,
    Rep,
};
use crate::spans::Spans;
use crate::speed::Stopwatch;
use crate::stats::Latency;
use crate::Workload;

/// One call of a generated schedule, by index into the workload's
/// world list (WIDs are only known once the worlds are registered).
#[derive(Debug, Clone, Copy)]
struct Draw {
    caller: u32,
    callee: u32,
    work_cycles: u64,
    touches: u64,
}

impl Draw {
    fn request(&self, worlds: &[Wid]) -> CallRequest {
        CallRequest::new(
            worlds[self.caller as usize],
            worlds[self.callee as usize],
            self.work_cycles,
            self.work_cycles / 3,
        )
        .with_touches(self.touches)
    }
}

/// Events each traced call may record, with headroom, so the flight
/// recorder never drops.
const OBS_EVENTS_PER_CALL: usize = 16;

fn obs_for(traced: bool, calls: usize) -> ObsConfig {
    if traced {
        ObsConfig::ring_with_capacity((calls * OBS_EVENTS_PER_CALL).next_power_of_two())
    } else {
        ObsConfig::off()
    }
}

/// Latency, conservation and per-layer bookkeeping shared by both batch
/// workloads once the pool has drained.
fn finish(rep: &mut Rep, report: &ServiceReport, attempted: u64, traced: bool, label: &str) {
    check_conservation(rep, report, label);
    rep.attempted = attempted;
    rep.failed = not_completed(report) + attempted.saturating_sub(report.admitted);
    rep.check(report.completed == attempted, || {
        format!(
            "{label}: {} of {attempted} calls completed",
            report.completed
        )
    });
    let lat = Latency::of(report.outcomes.iter().map(|o| o.latency_cycles).collect());
    rep.check(lat.p99_supported(), || {
        format!(
            "{label}: {} latency samples cannot support a p99",
            lat.samples
        )
    });
    rep.layers.insert("latency.samples", lat.samples as f64);
    rep.e2e.latency = Some(lat);
    rep.e2e.served_frac = report.completed as f64 / attempted.max(1) as f64;
    service_virtual(&mut rep.e2e, report);
    service_layers(&mut rep.layers, report);
    if traced {
        causal_layers(rep, report, label, true);
    }
}

// ---------------------------------------------------------------------
// classic_wide

/// Guest VMs holding the called worlds.
const WIDE_VMS: u64 = 16;
/// Worlds per VM (the per-VM quota is raised to fit them).
const WIDE_WORLDS_PER_VM: u64 = 64;
/// Working-set pages per world: 1024 worlds × 4 pages is 8× the
/// 512-entry TLB.
const WIDE_PAGES: u64 = 4;
/// Calls submitted before the pool starts.
const WIDE_CALLS: usize = 30_000;
/// Calls submitted after the churn schedule ends. The worker pulls
/// every retired WID before serving them, so the number of cache
/// invalidations it pays is the same on every run.
const WIDE_TAIL: usize = 256;
/// Hot set drawn for most call endpoints: 8× the 32-entry world-table
/// caches, so they miss, but reused often enough to set the epoch
/// table's eviction window near its floor.
const WIDE_HOT: usize = 256;
/// Share of endpoints drawn uniformly over every world instead. Each
/// such world idles for far longer than the eviction window between
/// calls, so it is evicted and then faulted back in.
const WIDE_COLD_P: f64 = 0.1;
/// Churn population kept alive at once, and register/delete pairs.
const CHURN_LIVE: usize = 32;
const CHURN_OPS: usize = 2_000;

pub struct ClassicWide {
    calls: Vec<Draw>,
    tail: Vec<Draw>,
}

impl ClassicWide {
    pub fn new(seed: u64) -> ClassicWide {
        let n = (WIDE_VMS * WIDE_WORLDS_PER_VM) as usize;
        let mut rng = SplitMix64::new(seed);
        // A shuffled world order; its first WIDE_HOT entries are the hot
        // set, spread over the VMs.
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            by_rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let endpoint = |rng: &mut SplitMix64| {
            if rng.chance(WIDE_COLD_P) {
                rng.below(n as u64) as u32
            } else {
                by_rank[rng.below(WIDE_HOT as u64) as usize]
            }
        };
        let mut draw = || {
            let callee = endpoint(&mut rng);
            let caller = loop {
                let c = endpoint(&mut rng);
                if c != callee {
                    break c;
                }
            };
            let work_cycles = 200 + rng.below(400);
            Draw {
                caller,
                callee,
                work_cycles,
                touches: 1 + rng.below(WIDE_PAGES),
            }
        };
        let calls = (0..WIDE_CALLS).map(|_| draw()).collect();
        let tail = (0..WIDE_TAIL).map(|_| draw()).collect();
        ClassicWide { calls, tail }
    }
}

impl Workload for ClassicWide {
    fn name(&self) -> &'static str {
        "classic_wide"
    }

    fn rep(&mut self, traced: bool, spans: &mut Spans) -> Rep {
        let mut rep = Rep::default();
        let attempted = (self.calls.len() + self.tail.len()) as u64;
        let setup_watch = Stopwatch::start(1);
        spans.enter("setup");
        let mut svc = spans.time("service_new", 0, || {
            WorldCallService::new(RuntimeConfig {
                workers: 1,
                quota: (WIDE_WORLDS_PER_VM as usize).max(CHURN_LIVE + 1),
                queue_capacity: attempted as usize,
                obs: obs_for(traced, attempted as usize),
                ..RuntimeConfig::default()
            })
        });
        let mut worlds = Vec::with_capacity((WIDE_VMS * WIDE_WORLDS_PER_VM) as usize);
        for v in 0..WIDE_VMS {
            let vm = spans.time("create_vm", v, || {
                svc.create_vm(VmConfig::named(&format!("wide-{v}")))
                    .expect("create vm")
            });
            for w in 0..WIDE_WORLDS_PER_VM {
                let cr3 = 0x1000 * (v * WIDE_WORLDS_PER_VM + w + 1);
                let wid = spans.time("register_guest_user", 0, || {
                    svc.register_guest_user(vm, cr3, 0x40_0000)
                        .expect("register world")
                });
                spans.time("attach_working_set", wid.raw(), || {
                    svc.attach_working_set(wid, vm, WIDE_PAGES)
                        .expect("attach working set")
                });
                worlds.push(wid);
            }
        }
        let churn_vm = spans.time("create_vm", WIDE_VMS, || {
            svc.create_vm(VmConfig::named("churn")).expect("create vm")
        });
        spans.exit();
        let setup = setup_watch.stop();

        let serve_watch = Stopwatch::start(1);
        let phase = Phase::begin();
        spans.enter("serve");
        for (i, d) in self.calls.iter().enumerate() {
            let req = d.request(&worlds);
            spans.time("submit", i as u64, || svc.submit(req).expect("queue open"));
        }
        spans.time("start", 0, || svc.start());
        // The churn population lives in its own VM and no call targets
        // it: its registrations and deletes contend with the pool only
        // through the shared table.
        let mut live: VecDeque<Wid> = VecDeque::with_capacity(CHURN_LIVE + 1);
        for i in 0..CHURN_OPS as u64 {
            let cr3 = 0x1_0000_0000 + 0x1000 * i;
            let wid = spans.time("register_churn", i, || {
                svc.register_guest_user(churn_vm, cr3, 0x40_0000)
                    .expect("register churn world")
            });
            live.push_back(wid);
            if live.len() > CHURN_LIVE {
                let old = live.pop_front().expect("non-empty");
                spans.time("delete_world", old.raw(), || {
                    svc.delete_world(old).expect("delete churn world")
                });
            }
        }
        let base = self.calls.len() as u64;
        for (i, d) in self.tail.iter().enumerate() {
            let req = d.request(&worlds);
            spans.time("submit", base + i as u64, || {
                svc.submit(req).expect("queue open")
            });
        }
        let report = spans.time("drain", 0, || svc.drain());
        spans.exit();
        let (allocs, heap_peak_bytes) = phase.end();
        let serve = serve_watch.stop();

        rep.set_host(
            HostCost {
                setup,
                serve,
                allocs,
                heap_peak_bytes,
            },
            report.completed,
        );
        finish(&mut rep, &report, attempted, traced, "classic_wide");
        rep.check(report.table.refaults > 0, || {
            "classic_wide: the epoch table never refaulted a world".to_string()
        });
        // One worker, every call pre-submitted and every retirement
        // pulled before the tail: the virtual clock is deterministic.
        let lat = rep.e2e.latency.expect("set by finish");
        rep.exact = vec![
            report.completed,
            report.smp.total_cycles(),
            report.smp.makespan_cycles(),
            report.switchless.world_calls + report.switchless.world_returns,
            lat.p50,
            lat.p99,
            report.wt.hits,
            report.tlb.hits,
        ];
        rep
    }
}

// ---------------------------------------------------------------------
// switchless_hot

/// Tenants, each a VM with one user and one kernel world.
const HOT_TENANTS: u64 = 4;
const HOT_PAGES: u64 = 8;
const HOT_CALLS: usize = 200_000;
const HOT_ZIPF: f64 = 1.3;
const HOT_WORKERS: usize = 2;

pub struct SwitchlessHot {
    calls: Vec<Draw>,
}

impl SwitchlessHot {
    pub fn new(seed: u64) -> SwitchlessHot {
        let n = (HOT_TENANTS * 2) as usize;
        let zipf = Zipf::new(n, HOT_ZIPF);
        let mut rng = SplitMix64::new(seed);
        let calls = (0..HOT_CALLS)
            .map(|_| {
                let callee = zipf.sample(&mut rng) as u32;
                let caller = loop {
                    let c = zipf.sample(&mut rng) as u32;
                    if c != callee {
                        break c;
                    }
                };
                // Small bodies: the regime where the transition pair
                // dominates and coalescing has something to amortize.
                let work_cycles = 60 + rng.below(240);
                Draw {
                    caller,
                    callee,
                    work_cycles,
                    touches: rng.below(4),
                }
            })
            .collect();
        SwitchlessHot { calls }
    }
}

impl Workload for SwitchlessHot {
    fn name(&self) -> &'static str {
        "switchless_hot"
    }

    fn rep(&mut self, traced: bool, spans: &mut Spans) -> Rep {
        let mut rep = Rep::default();
        let attempted = self.calls.len() as u64;
        let setup_watch = Stopwatch::start(1);
        spans.enter("setup");
        let mut svc = spans.time("service_new", 0, || {
            WorldCallService::new(RuntimeConfig {
                workers: HOT_WORKERS,
                queue_capacity: attempted as usize,
                batch_max: 32,
                switchless: SwitchlessConfig::adaptive(),
                obs: obs_for(traced, attempted as usize),
                ..RuntimeConfig::default()
            })
        });
        let mut worlds = Vec::new();
        for t in 0..HOT_TENANTS {
            let vm = spans.time("create_vm", t, || {
                svc.create_vm(VmConfig::named(&format!("hot-{t}")))
                    .expect("create vm")
            });
            let user = spans.time("register_guest_user", 0, || {
                svc.register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
                    .expect("register user world")
            });
            let kernel = spans.time("register_guest_kernel", 0, || {
                svc.register_guest_kernel(vm, 0x10_0000 * (t + 1), 0xFFFF_8000)
                    .expect("register kernel world")
            });
            for w in [user, kernel] {
                spans.time("attach_working_set", w.raw(), || {
                    svc.attach_working_set(w, vm, HOT_PAGES)
                        .expect("attach working set")
                });
                spans.time("attach_channel", w.raw(), || {
                    svc.attach_channel(w, vm).expect("attach channel")
                });
                worlds.push(w);
            }
        }
        spans.exit();
        let setup = setup_watch.stop();

        let serve_watch = Stopwatch::start(HOT_WORKERS);
        let phase = Phase::begin();
        spans.enter("serve");
        for (i, d) in self.calls.iter().enumerate() {
            let req = d.request(&worlds);
            spans.time("submit", i as u64, || svc.submit(req).expect("queue open"));
        }
        spans.time("start", 0, || svc.start());
        let report = spans.time("drain", 0, || svc.drain());
        spans.exit();
        let (allocs, heap_peak_bytes) = phase.end();
        let serve = serve_watch.stop();

        rep.set_host(
            HostCost {
                setup,
                serve,
                allocs,
                heap_peak_bytes,
            },
            report.completed,
        );
        finish(&mut rep, &report, attempted, traced, "switchless_hot");
        rep.check(report.switchless.drain.coalesced_calls > 0, || {
            "switchless_hot: no call was coalesced".to_string()
        });
        // Two workers steal from each other, so only verdicts are
        // deterministic; cycle counts depend on which worker ran what.
        rep.exact = vec![
            report.completed,
            report
                .outcomes
                .iter()
                .filter(|o| o.verdict != CallVerdict::Completed)
                .count() as u64,
        ];
        rep
    }
}
