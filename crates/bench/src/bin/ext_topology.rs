//! Extension experiment: link-topology sweep.
//!
//! Fixes the machine at 8 GPUs and sweeps NVLink island sizes × inter-island
//! (PCIe) bandwidths × the four schedulers, replaying every plan on a
//! topology-carrying [`SimMachine`] to measure elapsed time and cross-island
//! traffic. Each point runs twice: `routed` (flat placement decisions, link
//! time charged per hop) and `aware` (the scheduler's candidate scoring also
//! penalizes cross-island fetch routes, `DriverOptions::with_topology_aware`).
//!
//! Emits `results/ext_topology.csv` plus a machine-readable
//! `BENCH_topology.json` (validated by `scripts/check_bench_schema.py`)
//! recording every swept point and the configs where topology-aware placement
//! strictly reduced inter-island bytes — the binary fails if there are none.
//!
//! Usage:
//!   ext_topology [--out PATH]

use micco_bench::report::emit;
use micco_core::{
    execute_plan, CodaScheduler, DriverOptions, GrouteScheduler, MiccoScheduler, ReuseBounds,
    RoundRobinScheduler, Scheduler, Session,
};
use micco_gpusim::{LinkTopology, MachineConfig, SimMachine};
use micco_workload::{RepeatDistribution, TensorPairStream, WorkloadSpec};

const GPUS: usize = 8;
/// NVLink bandwidth pin; the sweep varies the inter-island tier against it.
const NV_GIB_S: f64 = 200.0;

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
        Box::new(GrouteScheduler::new()),
        Box::new(CodaScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
    ]
}

/// The sweep stream: repeat-heavy enough that operands are routinely held
/// on a remote device, so island placement actually matters.
fn sweep_stream() -> TensorPairStream {
    WorkloadSpec::new(24, 64)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(6)
        .with_seed(0x5eed)
        .generate()
}

/// One measured point of the sweep.
struct Point {
    island: usize,
    pcie_gib_s: f64,
    scheduler: String,
    mode: &'static str,
    elapsed_secs: f64,
    cross_island_transfers: u64,
    cross_island_bytes: u64,
}

fn measure(
    stream: &TensorPairStream,
    cfg: &MachineConfig,
    topo: &LinkTopology,
    sched: &mut dyn Scheduler,
    opts: DriverOptions,
    mode: &'static str,
) -> Point {
    let plan = Session::new(*cfg)
        .with_options(opts)
        .with_topology(topo.clone())
        .plan(sched, stream)
        .expect("sweep plans")
        .into_plan();
    // replay on a machine we own, to read its cross-island counters
    let mut machine = SimMachine::new(*cfg);
    machine.set_topology(Some(topo.clone()));
    let report = execute_plan(&plan, stream, &mut machine).expect("replays");
    let (transfers, bytes) = machine.cross_island_traffic();
    Point {
        island: topo.island_size(),
        pcie_gib_s: topo.pcie_spec().gib_s,
        scheduler: plan.scheduler.clone(),
        mode,
        elapsed_secs: report.elapsed_secs(),
        cross_island_transfers: transfers,
        cross_island_bytes: bytes,
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let mut out = "BENCH_topology.json".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => {
                out = it.next().unwrap_or_else(|| {
                    eprintln!("ext_topology: --out requires a value");
                    std::process::exit(2)
                })
            }
            other => {
                eprintln!("ext_topology: unknown flag {other}");
                eprintln!("usage: ext_topology [--out PATH]");
                std::process::exit(2)
            }
        }
    }

    println!("# Extension — Link Topology (8 GPUs, NVLink islands over PCIe)");
    let stream = sweep_stream();
    let cfg = MachineConfig::mi100_like(GPUS);
    let mut points = Vec::new();
    for island in [2usize, 4] {
        for pcie_gib_s in [64.0f64, 16.0, 4.0] {
            let topo = LinkTopology::parse(&format!(
                "nvlink{{gpus:{GPUS}, island:{island}, nv:{NV_GIB_S}@1, pcie:{pcie_gib_s}@3}}"
            ))
            .expect("valid spec");
            for mut sched in schedulers() {
                for (mode, opts) in [
                    ("routed", DriverOptions::default()),
                    ("aware", DriverOptions::default().with_topology_aware()),
                ] {
                    points.push(measure(&stream, &cfg, &topo, &mut *sched, opts, mode));
                }
            }
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.island.to_string(),
                format!("{:.0}", p.pcie_gib_s),
                p.scheduler.clone(),
                p.mode.to_string(),
                format!("{:.6}", p.elapsed_secs),
                p.cross_island_transfers.to_string(),
                p.cross_island_bytes.to_string(),
            ]
        })
        .collect();
    emit(
        "ext_topology",
        &[
            "island",
            "pcie GiB/s",
            "scheduler",
            "mode",
            "elapsed s",
            "cross-island xfers",
            "cross-island bytes",
        ],
        &rows,
    );

    // Pair up routed/aware runs of the same (island, pcie, scheduler) point
    // and collect the configs where awareness strictly reduced inter-island
    // bytes — the acceptance signal this experiment exists to demonstrate.
    let mut improved = Vec::new();
    for routed in points.iter().filter(|p| p.mode == "routed") {
        let aware = points
            .iter()
            .find(|p| {
                p.mode == "aware"
                    && p.island == routed.island
                    && p.pcie_gib_s == routed.pcie_gib_s
                    && p.scheduler == routed.scheduler
            })
            .expect("every routed point has an aware twin");
        if aware.cross_island_bytes < routed.cross_island_bytes {
            improved.push((routed, aware));
        }
    }
    assert!(
        !improved.is_empty(),
        "topology-aware placement reduced inter-island bytes on no swept config"
    );
    println!(
        "\nReading: `routed` keeps flat placement decisions and only charges the\n\
         per-hop link time, so slow inter-island links stretch the timeline;\n\
         `aware` lets the scheduler's candidate scoring see the routed fetch\n\
         cost. Awareness strictly reduced inter-island bytes on {} of {} swept\n\
         scheduler×topology points (reuse-oblivious schedulers ignore the knob).",
        improved.len(),
        points.len() / 2,
    );

    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"island\": {}, \"pcie_gib_s\": {}, \"scheduler\": \"{}\", ",
                    "\"mode\": \"{}\", \"elapsed_secs\": {}, ",
                    "\"cross_island_transfers\": {}, \"cross_island_bytes\": {}}}"
                ),
                p.island,
                json_f64(p.pcie_gib_s),
                p.scheduler,
                p.mode,
                json_f64(p.elapsed_secs),
                p.cross_island_transfers,
                p.cross_island_bytes
            )
        })
        .collect();
    let improved_entries: Vec<String> = improved
        .iter()
        .map(|(r, a)| {
            format!(
                concat!(
                    "    {{\"island\": {}, \"pcie_gib_s\": {}, \"scheduler\": \"{}\", ",
                    "\"routed_bytes\": {}, \"aware_bytes\": {}}}"
                ),
                r.island,
                json_f64(r.pcie_gib_s),
                r.scheduler,
                r.cross_island_bytes,
                a.cross_island_bytes
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"topology\",\n",
            "  \"version\": 1,\n",
            "  \"tasks\": {tasks},\n",
            "  \"gpus\": {gpus},\n",
            "  \"nvlink_gib_s\": {nv},\n",
            "  \"points\": [\n{points}\n  ],\n",
            "  \"aware_improvements\": [\n{improved}\n  ]\n",
            "}}\n"
        ),
        tasks = stream.total_tasks(),
        gpus = GPUS,
        nv = json_f64(NV_GIB_S),
        points = entries.join(",\n"),
        improved = improved_entries.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write report");
    eprintln!("wrote {out}");
}
