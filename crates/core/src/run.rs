//! Study orchestration: generate + analyze whole datasets, parallel
//! across traces (each trace is independent, exactly like the paper's
//! per-subnet capture files).
//!
//! All datasets of a study share a single global work queue — workers
//! never idle at a dataset boundary waiting for the previous dataset's
//! last straggler traces. Scenario packs ([`crate::packs`]) drain the
//! same queue.

use crate::metrics::{PipelineMetrics, Stage, StageTimer};
use crate::pipeline::{analyze_arena, PipelineConfig};
use crate::records::{IngestHealth, TraceAnalysis};
use ent_gen::build::{build_site, generate_trace_into, GenConfig, GenTiming};
use ent_gen::dataset::{all_datasets, DatasetSpec};
use ent_pcap::{PacketArena, TraceMeta};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration for a study or scenario-pack run.
#[derive(Debug, Clone, Default)]
pub struct StudyConfig {
    /// Generator configuration (scale, seed).
    pub gen: GenConfig,
    /// Pipeline configuration (scanner removal). Its `shards` is not read:
    /// a generated trace always ingests inline ([`analyze_arena`]).
    pub pipeline: PipelineConfig,
    /// Trace-level worker threads (0 = available parallelism; capped by
    /// [`effective_threads`]). Each runs its traces inline.
    pub threads: usize,
}

impl StudyConfig {
    /// The worker threads a run of `work_items` traces starts on this
    /// machine: [`effective_threads`] of the request and the core count.
    /// This, not the request, is what a bench document records.
    pub fn workers(&self, work_items: usize) -> usize {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        effective_threads(self.threads, cores, work_items)
    }
}

/// One analyzed dataset.
#[derive(Debug)]
pub struct DatasetAnalysis {
    /// The dataset spec used.
    pub spec: DatasetSpec,
    /// Per-trace analyses, ordered by (pass, subnet).
    pub traces: Vec<TraceAnalysis>,
}

impl DatasetAnalysis {
    /// Ingest damage aggregated across every trace of the dataset.
    pub fn ingest_health(&self) -> IngestHealth {
        let mut h = IngestHealth::default();
        for t in &self.traces {
            h.absorb(&t.health);
        }
        h
    }

    /// Pipeline metrics aggregated across every trace of the dataset.
    pub fn pipeline_metrics(&self) -> PipelineMetrics {
        let mut m = PipelineMetrics::default();
        for t in &self.traces {
            m.absorb(&t.metrics);
        }
        m
    }
}

/// The one trace work queue: every item of `work` is claimed off an
/// atomic cursor by one of [`StudyConfig::workers`] threads, each reusing a
/// single [`PacketArena`] across its items (after the first trace its
/// buffers are warm and generation stops allocating entirely). Results
/// come back in work-index order, so they are identical for any thread
/// count.
pub(crate) fn run_queue<W: Sync, T: Send>(
    work: &[W],
    config: &StudyConfig,
    run: impl Fn(&W, &mut PacketArena) -> T + Sync,
) -> Vec<T> {
    let threads = config.workers(work.len());
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut arena = PacketArena::unbounded();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = work.get(i) else { break };
                        mine.push((i, run(item, &mut arena)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// One work item's pipeline: `generate` the trace into the worker's
/// arena, analyze it straight out of the arena, and fold the generator's
/// timing into the analysis' stage table. Packets live only until the
/// worker's next item, bounding memory.
pub(crate) fn analyze_generated(
    arena: &mut PacketArena,
    pipeline: &PipelineConfig,
    generate: impl FnOnce(&mut PacketArena) -> (TraceMeta, GenTiming),
) -> TraceAnalysis {
    let gt = StageTimer::start();
    let (meta, gen) = generate(arena);
    let gen_ns = gt.elapsed_ns();
    let mut analysis = analyze_arena(&meta, arena, pipeline);
    let stages = &mut analysis.metrics.stages;
    stages[Stage::Generate].add(gen_ns, arena.len() as u64, arena.wire_bytes());
    // The generation sub-stages (all nested inside `generate`): session
    // emission, the global sort, and the capture tap.
    stages[Stage::GenSynth].add(gen.synth_ns, gen.synth_packets, gen.synth_bytes);
    stages[Stage::GenSort].add(gen.sort_ns, gen.sorted_packets, 0);
    stages[Stage::GenTap].add(gen.tap_ns, arena.len() as u64, gen.captured_bytes);
    // Per-trace worker wall time covers the whole item: generation
    // included, not just analysis.
    analysis.metrics.trace_wall_ns += gen_ns;
    analysis
}

/// Generate and analyze several datasets over one global work queue.
///
/// Every trace of every dataset is a single work item. The work list is
/// dataset-major in [`DatasetSpec::slots`] order, so the queue's
/// work-index-ordered results split back into per-dataset runs whose
/// per-trace ordering (and content) is identical to running each dataset
/// alone.
pub fn run_datasets(specs: &[DatasetSpec], config: &StudyConfig) -> Vec<DatasetAnalysis> {
    let sites: Vec<_> = specs.iter().map(|s| build_site(s, &config.gen)).collect();
    let work: Vec<_> = specs
        .iter()
        .zip(&sites)
        .flat_map(|(spec, site)| spec.slots().map(move |slot| (spec, site, slot)))
        .collect();
    let mut analyses = run_queue(&work, config, |&(spec, (site, wan), (subnet, pass)), arena| {
        analyze_generated(arena, &config.pipeline, |arena| {
            generate_trace_into(site, wan, spec, subnet, pass, &config.gen, arena)
        })
    })
    .into_iter();
    specs
        .iter()
        .map(|spec| DatasetAnalysis {
            spec: *spec,
            traces: analyses.by_ref().take(spec.trace_count()).collect(),
        })
        .collect()
}

/// The trace-level worker count: an explicit `requested` count is honored
/// up to `cores` (never below 1 thread), `requested == 0` means "one per
/// core", and never more than the number of work items. Thread count never affects results — only wall time — so capping is
/// always safe.
pub fn effective_threads(requested: usize, cores: usize, work_items: usize) -> usize {
    let budget = cores.max(1);
    let want = if requested == 0 { budget } else { requested.min(budget) };
    want.min(work_items.max(1))
}

/// Generate and analyze one dataset, trace-parallel.
pub fn run_dataset(spec: &DatasetSpec, config: &StudyConfig) -> DatasetAnalysis {
    run_datasets(std::slice::from_ref(spec), config)
        .pop()
        .unwrap_or_else(|| DatasetAnalysis {
            spec: *spec,
            traces: Vec::new(),
        })
}

/// Run the whole five-dataset study over one shared work queue.
pub fn run_study(config: &StudyConfig) -> Vec<DatasetAnalysis> {
    run_datasets(&all_datasets(), config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StudyConfig {
        StudyConfig {
            gen: GenConfig {
                scale: 0.003,
                seed: 5,
                hosts_per_subnet: Some(8),
            },
            ..Default::default()
        }
    }

    /// Two shrunken datasets — enough work items to exercise the global
    /// queue across a dataset boundary while staying test-sized.
    fn two_small_specs() -> Vec<DatasetSpec> {
        let specs = all_datasets();
        let mut a = specs[0];
        a.monitored = (0..3).into();
        let mut b = specs[1];
        b.monitored = (0..2).into();
        vec![a, b]
    }

    #[test]
    fn effective_threads_caps_threads_times_shards_at_cores() {
        // Auto (requested 0): one worker per core, lane or no lane.
        assert_eq!(effective_threads(0, 8, 100), 8);
        // Explicit requests are honored up to the budget, never above.
        assert_eq!(effective_threads(4, 16, 100), 4);
        assert_eq!(effective_threads(32, 16, 100), 16);
        // Never more threads than work items.
        assert_eq!(effective_threads(0, 16, 3), 3);
        assert_eq!(effective_threads(8, 16, 3), 3);
        // Degenerate inputs stay sane.
        assert_eq!(effective_threads(0, 0, 0), 1);
    }

    #[test]
    fn run_dataset_produces_one_analysis_per_trace() {
        let specs = all_datasets();
        let da = run_dataset(&specs[0], &tiny());
        assert_eq!(da.traces.len(), 22);
        assert!(da.traces.iter().all(|t| t.packets > 0));
        // Deterministic ordering by (pass, subnet).
        assert_eq!(da.traces[0].subnet, 0);
        assert_eq!(da.traces[21].subnet, 21);
    }

    #[test]
    fn parallel_equals_serial() {
        let specs = all_datasets();
        let mut spec = specs[0];
        spec.monitored = (0..4).into();
        let par = run_dataset(
            &spec,
            &StudyConfig {
                threads: 4,
                ..tiny()
            },
        );
        let ser = run_dataset(
            &spec,
            &StudyConfig {
                threads: 1,
                ..tiny()
            },
        );
        assert_eq!(par.traces.len(), ser.traces.len());
        for (a, b) in par.traces.iter().zip(&ser.traces) {
            assert_eq!(a.packets, b.packets);
            assert_eq!(a.conns.len(), b.conns.len());
            assert_eq!(a.subnet, b.subnet);
            assert_eq!(a.health, b.health);
        }
    }

    #[test]
    fn parallel_equals_serial_study_wide() {
        // The global work queue interleaves traces from different
        // datasets across workers; results must still be identical to a
        // serial run, trace for trace.
        let specs = two_small_specs();
        let par = run_datasets(
            &specs,
            &StudyConfig {
                threads: 4,
                ..tiny()
            },
        );
        let ser = run_datasets(
            &specs,
            &StudyConfig {
                threads: 1,
                ..tiny()
            },
        );
        assert_eq!(par.len(), ser.len());
        for (dp, ds) in par.iter().zip(&ser) {
            assert_eq!(dp.spec.name, ds.spec.name);
            assert_eq!(dp.traces.len(), ds.traces.len());
            for (a, b) in dp.traces.iter().zip(&ds.traces) {
                assert_eq!((a.subnet, a.pass), (b.subnet, b.pass));
                assert_eq!(a.packets, b.packets);
                assert_eq!(a.conns.len(), b.conns.len());
                assert_eq!(a.health, b.health);
                assert_eq!(a.bytes_per_second, b.bytes_per_second);
            }
        }
    }

    #[test]
    fn metrics_event_counts_are_thread_count_invariant() {
        // Wall times legitimately vary run to run; event and byte counts
        // must not. The signature excludes every timer field.
        let specs = two_small_specs();
        let par = run_datasets(
            &specs,
            &StudyConfig {
                threads: 4,
                ..tiny()
            },
        );
        let ser = run_datasets(
            &specs,
            &StudyConfig {
                threads: 1,
                ..tiny()
            },
        );
        let mut mp = PipelineMetrics::default();
        let mut ms = PipelineMetrics::default();
        for d in &par {
            mp.absorb(&d.pipeline_metrics());
        }
        for d in &ser {
            ms.absorb(&d.pipeline_metrics());
        }
        assert_eq!(mp.events_signature(), ms.events_signature());
        assert!(mp.packets() > 0);
        assert!(mp.stages[Stage::Generate].events > 0);
        assert!(mp.stages[Stage::Finalize].events > 0);
    }
}
