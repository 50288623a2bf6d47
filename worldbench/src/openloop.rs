//! `gateway_openloop`: open-loop Poisson traffic from four tenants
//! through the ring-mode gateway, at fixed offered rates that bracket
//! the two-worker pool's capacity, with authz enforcing and the SLO
//! watchdog armed.
//!
//! Arrivals are generated in virtual time before the run and staged
//! with their due instants, so the generator is never late and each
//! call's latency is timed from when it was due. The gateway replays
//! admission against a virtual-server model of the pool and places
//! completions with each call's measured on-CPU latency
//! (`gateway/src/reactor.rs`): the end-to-end latency is *modeled*.
//!
//! Rings and quotas are sized so that nothing is shed at any rate:
//! overload shows as a growing backlog and a p99 above the latency
//! limit, and every offered call is served.

use crossover::world::Wid;
use gateway::{Gateway, GatewayConfig, TenantClass, TenantConfig};
use hypervisor::vm::VmConfig;
use machine::rng::SplitMix64;
use obs::config::ObsConfig;
use runtime::{AuthzConfig, CallRequest, RuntimeConfig, WatchdogConfig, WorldCallService};
use workloads::openloop::{generate, Arrival, ArrivalProcess, OpenLoopConfig};

use crate::alloc::Phase;
use crate::metrics::{causal_layers, check_conservation, not_completed, service_layers, Rep, HZ};
use crate::spans::Spans;
use crate::speed::Stopwatch;
use crate::stats::{percentile, Latency};
use crate::Workload;

const TENANTS: u32 = 4;
const CLASSES: [TenantClass; TENANTS as usize] = [
    TenantClass::Gold,
    TenantClass::Silver,
    TenantClass::Silver,
    TenantClass::Bronze,
];
/// The Bronze tenant sends in on/off bursts; the others are Poisson.
const BURSTY_TENANT: u32 = 3;
const WORKERS: usize = 2;
const PAGES: u64 = 8;
/// Virtual-time span of each rate's arrival trace: longer at the
/// nominal rate, whose p99 is an end-to-end metric and needs the
/// samples to be steady across seeds.
const HORIZON_CYCLES: u64 = 24_000_000;
const NOMINAL_HORIZON_CYCLES: u64 = 96_000_000;
/// On/off period of the bursty tenant.
const BURST_PERIOD_CYCLES: u64 = 2_000_000;
/// Body work per call, uniform over this range.
const WORK_CYCLES: (u64, u64) = (300, 800);
/// In-flight calls a tenant may hold before its ring head waits.
const QUOTA: usize = 64;
/// Offered load per rate, as the mean per-tenant inter-arrival gap in
/// cycles. Two workers at ~1015 cycles per call serve one call per ~507
/// cycles: a per-tenant gap of ~2030 at capacity. The bursty tenant
/// doubles its rate while on, so gaps below ~2540 overload the pool
/// during bursts. 4000 (~50% load) and 2900 (~70%) stay below capacity
/// throughout; 2500 (~80%) overloads in bursts and recovers; 2250 (~90%)
/// builds a backlog in every burst.
const GAPS: [f64; 4] = [4_000.0, 2_900.0, 2_500.0, 2_250.0];
/// The rate whose latency is the workload's end-to-end latency: about
/// half the pool's capacity, where the p99 is set by burst collisions
/// rather than by a backlog growing over the horizon.
const NOMINAL: usize = 0;
/// The first rates stay below capacity even while the bursty tenant is
/// on: "clean" rates, where no authz deny and no watchdog incident is
/// allowed.
const CLEAN_RATES: usize = 2;
/// The latency limit `max_rate_at_slo` is judged against: admitted-call
/// end-to-end p99, in cycles (~29 us at 3.4 GHz).
const SLO_P99_CYCLES: u64 = 100_000;
/// The largest share of offered calls that may fail at a rate that
/// meets the SLO.
const SLO_MAX_FAILED: f64 = 0.01;
/// Flight-recorder headroom per call in traced runs.
const OBS_EVENTS_PER_CALL: usize = 16;

/// Offered calls per simulated second at a per-tenant mean gap: the
/// Poisson tenants send at 1/gap; the bursty one at twice that rate
/// half of the time.
fn offered_per_s(gap: f64) -> f64 {
    f64::from(TENANTS) * HZ / gap
}

fn trace_for(seed: u64, gap: f64, horizon_cycles: u64) -> Vec<Arrival> {
    let base = OpenLoopConfig {
        tenants: TENANTS,
        horizon_cycles,
        callees: TENANTS as usize,
        zipf_s: 1.0,
        work_cycles: WORK_CYCLES,
        process: ArrivalProcess::Poisson {
            mean_gap_cycles: gap,
        },
        seed,
    };
    let mut trace: Vec<Arrival> = generate(&base)
        .into_iter()
        .filter(|a| a.tenant != BURSTY_TENANT)
        .collect();
    // ON half of each period at twice the rate: the same mean.
    let period = BURST_PERIOD_CYCLES;
    let bursty = generate(&OpenLoopConfig {
        tenants: 1,
        process: ArrivalProcess::BurstyOnOff {
            mean_gap_cycles: gap / 2.0,
            on_cycles: period / 2,
            off_cycles: period / 2,
        },
        seed: seed ^ 0xB0B5,
        ..base
    });
    trace.extend(bursty.into_iter().map(|a| Arrival {
        tenant: BURSTY_TENANT,
        ..a
    }));
    trace.sort_by_key(|a| (a.at_cycles, a.tenant));
    trace
}

/// One rate's staged arrivals plus the per-call draws the bench makes.
struct RateInput {
    gap: f64,
    arrivals: Vec<Arrival>,
    touches: Vec<u64>,
}

pub struct GatewayOpenLoop {
    rates: Vec<RateInput>,
}

impl GatewayOpenLoop {
    pub fn new(seed: u64) -> GatewayOpenLoop {
        let rates = GAPS
            .iter()
            .enumerate()
            .map(|(i, &gap)| {
                let horizon = if i == NOMINAL {
                    NOMINAL_HORIZON_CYCLES
                } else {
                    HORIZON_CYCLES
                };
                let arrivals = trace_for(seed.wrapping_add(i as u64 * 0x9E37_79B9), gap, horizon);
                let mut rng = SplitMix64::new(seed ^ 0x70C4 ^ i as u64);
                let touches = arrivals.iter().map(|_| rng.below(PAGES / 2)).collect();
                RateInput {
                    gap,
                    arrivals,
                    touches,
                }
            })
            .collect();
        GatewayOpenLoop { rates }
    }
}

/// Totals over the rates of one repetition.
#[derive(Default)]
struct Totals {
    setup_s: f64,
    /// At nominal host speed, and as measured.
    serve_ns: f64,
    serve_raw_ns: f64,
    allocs: u64,
    heap_peak: usize,
    offered: u64,
    completed: u64,
    total_cycles: u64,
    makespan_cycles: u64,
    switches: u64,
    shed: u64,
    authz_checks: u64,
    denies: u64,
    incidents: u64,
}

/// Builds one rate's service: a VM per tenant with a user (caller) and
/// a kernel (callee) world, working sets on both, every caller granted
/// every callee.
fn build(calls: usize, traced: bool, spans: &mut Spans) -> (WorldCallService, Vec<(Wid, Wid)>) {
    let mut svc = spans.time("service_new", 0, || {
        WorldCallService::new(RuntimeConfig {
            workers: WORKERS,
            queue_capacity: calls + 16,
            batch_max: 32,
            authz: AuthzConfig::enforcing(),
            watchdog: WatchdogConfig::on(),
            obs: if traced {
                ObsConfig::ring_with_capacity((calls * OBS_EVENTS_PER_CALL).next_power_of_two())
            } else {
                ObsConfig::off()
            },
            ..RuntimeConfig::default()
        })
    });
    let mut worlds = Vec::new();
    for t in 0..u64::from(TENANTS) {
        let vm = spans.time("create_vm", t, || {
            svc.create_vm(VmConfig::named(&format!("gw-{t}")))
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
                svc.attach_working_set(w, vm, PAGES)
                    .expect("attach working set")
            });
        }
        worlds.push((user, kernel));
    }
    let policy = svc.authz().expect("authz enforcing").clone();
    for &(user, _) in &worlds {
        for &(_, kernel) in &worlds {
            policy.grant(user, kernel);
        }
    }
    (svc, worlds)
}

impl Workload for GatewayOpenLoop {
    fn name(&self) -> &'static str {
        "gateway_openloop"
    }

    fn rep(&mut self, traced: bool, spans: &mut Spans) -> Rep {
        let mut rep = Rep::default();
        let mut tot = Totals::default();
        let mut max_rate_at_slo = 0.0f64;
        for (i, rate) in self.rates.iter().enumerate() {
            let label = format!("gateway_openloop@{:.0}", rate.gap);
            let calls = rate.arrivals.len();
            let setup_watch = Stopwatch::start(1);
            spans.enter("setup");
            let (svc, worlds) = build(calls, traced, spans);
            spans.exit();
            let (setup_ns, setup_k) = setup_watch.stop();
            tot.setup_s += setup_ns * setup_k / 1e9;

            let serve_watch = Stopwatch::start(WORKERS);
            let phase = Phase::begin();
            spans.enter("serve");
            let mut gw = Gateway::new(GatewayConfig::rings(
                CLASSES
                    .iter()
                    .map(|&c| TenantConfig::new(c, QUOTA, calls))
                    .collect(),
            ));
            for (j, (a, &touches)) in rate.arrivals.iter().zip(&rate.touches).enumerate() {
                let (caller, _) = worlds[a.tenant as usize];
                let (_, callee) = worlds[a.callee_rank % worlds.len()];
                let req = CallRequest::new(caller, callee, a.work_cycles, a.work_cycles / 3)
                    .with_touches(touches)
                    .with_tenant(a.tenant);
                spans.time("enqueue", j as u64, || {
                    gw.enqueue(a.tenant, a.at_cycles, req)
                });
            }
            let report = spans.time("run", 0, || gw.run(svc));
            spans.exit();
            let (allocs, peak) = phase.end();
            let (serve_ns, serve_k) = serve_watch.stop();
            tot.serve_ns += serve_ns * serve_k;
            tot.serve_raw_ns += serve_ns;
            tot.allocs += allocs;
            tot.heap_peak = tot.heap_peak.max(peak);

            let svc_r = &report.service;
            if let Err(e) = report.check_conservation() {
                rep.violations.push(format!("{label}: {e}"));
            }
            check_conservation(&mut rep, svc_r, &label);
            rep.check(report.shed == 0, || {
                format!(
                    "{label}: {} calls shed; rings are sized to shed none",
                    report.shed
                )
            });
            rep.check(svc_r.completed == report.submitted, || {
                format!(
                    "{label}: {} of {} offered calls completed",
                    svc_r.completed, report.submitted
                )
            });
            let failed = not_completed(svc_r) + report.shed;
            let denies = svc_r.authz.total_denied() + report.shed_denied;
            let incidents = svc_r.watchdog.as_ref().map_or(0, |w| w.incidents.len()) as u64;
            if i < CLEAN_RATES {
                rep.check(denies == 0, || format!("{label}: {denies} authz denies"));
                rep.check(incidents == 0, || {
                    format!("{label}: {incidents} watchdog incidents on a clean rate")
                });
            }
            tot.offered += report.submitted;
            tot.completed += svc_r.completed;
            tot.total_cycles += svc_r.smp.total_cycles();
            tot.makespan_cycles += svc_r.smp.makespan_cycles();
            tot.switches += svc_r.switchless.world_calls + svc_r.switchless.world_returns;
            tot.shed += report.shed;
            tot.authz_checks += svc_r.authz.checks;
            tot.denies += denies;
            tot.incidents += incidents;
            rep.failed += failed;

            let lat = Latency::of(report.admitted_e2e_cycles.clone());
            let failed_frac = failed as f64 / report.submitted.max(1) as f64;
            if lat.p99 < SLO_P99_CYCLES && failed_frac <= SLO_MAX_FAILED {
                max_rate_at_slo = max_rate_at_slo.max(offered_per_s(rate.gap));
            }
            if i == NOMINAL {
                rep.check(lat.p99_supported(), || {
                    format!(
                        "{label}: {} latency samples cannot support a p99",
                        lat.samples
                    )
                });
                rep.e2e.latency = Some(lat);
                rep.layers.insert("latency.samples", lat.samples as f64);
                service_layers(&mut rep.layers, svc_r);
                let mut waits: Vec<u64> = report
                    .tenants
                    .iter()
                    .flat_map(|t| t.completions.iter())
                    .map(|c| c.admitted_cycles - c.arrival_cycles)
                    .collect();
                waits.sort_unstable();
                rep.layers.insert(
                    "gateway.admit_wait_vcycles_p99",
                    percentile(&waits, 99.0) as f64,
                );
                rep.layers.insert(
                    "gateway.ring_high_water",
                    report
                        .tenants
                        .iter()
                        .map(|t| t.ring_high_water)
                        .max()
                        .unwrap_or(0) as f64,
                );
                rep.exact = vec![
                    report.submitted,
                    report.admitted,
                    svc_r.completed,
                    report.shed,
                ];
            }
            if traced {
                causal_layers(&mut rep, svc_r, &label, i == NOMINAL);
            }
        }

        let done = tot.completed.max(1) as f64;
        rep.attempted = tot.offered;
        rep.serve_ns = tot.serve_ns;
        rep.e2e.setup_s = tot.setup_s;
        rep.e2e.host_ns_per_call = tot.serve_ns / done;
        rep.e2e.allocs_per_call = tot.allocs as f64 / done;
        rep.e2e.heap_peak_mb = tot.heap_peak as f64 / (1024.0 * 1024.0);
        rep.e2e.vcycles_per_call = tot.total_cycles as f64 / done;
        rep.e2e.world_switches_per_call = tot.switches as f64 / done;
        rep.e2e.sim_calls_per_s = done * HZ / tot.makespan_cycles.max(1) as f64;
        rep.e2e.served_frac = tot.completed as f64 / tot.offered.max(1) as f64;
        let layers = [
            ("host.serve_s", tot.serve_raw_ns / 1e9),
            ("host.speed_scale", tot.serve_ns / tot.serve_raw_ns),
            ("host.allocs", tot.allocs as f64),
            (
                "gateway.shed_frac",
                tot.shed as f64 / tot.offered.max(1) as f64,
            ),
            ("gateway.max_rate_at_slo", max_rate_at_slo),
            // Arrivals are staged at their due instants before the run.
            ("gateway.generator_lateness_vcycles", 0.0),
            ("authz.checks", tot.authz_checks as f64),
            ("authz.denies", tot.denies as f64),
            ("watchdog.incidents", tot.incidents as f64),
        ];
        rep.layers.extend(layers);
        rep.exact.push(tot.offered);
        rep
    }
}
