package main

import (
	"slices"
	"time"
)

const mib = 1 << 20

// endToEnd computes the end-to-end metrics from the timed runs. Host-time
// figures come only from runs without probes.
func (r *result) endToEnd() []metric {
	ts := r.timed
	rankSteps := float64(r.w.ranks * r.w.steps)
	return []metric{
		summary("setup_s", "s", collectF(r.setups, time.Duration.Seconds)),
		summary("rank_steps_per_cal", "1/cal", collectF(ts, func(s sample) float64 { return rankSteps * s.calib.Seconds() / s.run.Seconds() })),
		summary("live_heap_mib", "MiB", collectF(ts, func(s sample) float64 {
			return (float64(s.liveHeap) - float64(s.heapBaseline)) / mib
		})),
		r.virtOverhead(),
		summary("logged_fraction", "ratio", collectF(ts, func(s sample) float64 {
			return float64(s.loggedBytes) / float64(s.bytesSent)
		})),
		summary("ckpt_kib_per_image", "KiB", collectF(ts, func(s sample) float64 { return kibPerImage(s.outcome) })),
	}
}

// extras are the end-to-end figures the result line does not carry:
// rank_steps_per_s moves with the host's speed too much to hold a bound (it
// is reported per layer as host.rank_steps_per_s), fail_frac is zero on a
// healthy run, and the recovery figures exist only on workloads with faults.
// They are printed with the end-to-end table.
func (r *result) extras() []metric {
	ms := []metric{
		r.rankStepsPerS(),
		single("fail_frac", "ratio", float64(r.failed)/float64(max(r.attempted, 1))),
	}
	ms[0].note = "host time, not normalised"
	ms[1].note = "failed/attempted, carried by the result line"
	if len(r.in.faults) == 0 {
		return ms
	}
	ms = append(ms,
		summary("recovery_virt_ms", "ms", collectF(r.timed, func(s sample) float64 { return r.recoveryVirtMs(s.outcome) })),
		summary("rolled_back_ranks", "count", collectF(r.timed, func(s sample) float64 { return float64(len(s.metrics.RolledBackRanks)) })),
	)
	return ms
}

// rankStepsPerS is the throughput in plain host time.
func (r *result) rankStepsPerS() metric {
	rankSteps := float64(r.w.ranks * r.w.steps)
	return summary("rank_steps_per_s", "1/s", collectF(r.timed, func(s sample) float64 { return rankSteps / s.run.Seconds() }))
}

// virtOverhead is the failure-free protected makespan over the native one
// (the paper's Table 2 figure), in virtual time.
func (r *result) virtOverhead() metric {
	if r.ref.failureFree != nil {
		m := single("virt_overhead", "ratio", r.ref.failureFree.Makespan/r.ref.native.Makespan)
		m.note = "virtual"
		return m
	}
	m := summary("virt_overhead", "ratio", collectF(r.timed, func(s sample) float64 { return s.makespan / r.ref.native.Makespan }))
	m.note = "virtual"
	return m
}

func (r *result) recoveryVirtMs(o outcome) float64 {
	if r.ref.failureFree == nil {
		return 0
	}
	return (o.makespan - r.ref.failureFree.Makespan) * 1e3
}

// kibPerImage is the bytes written to storage per per-rank checkpoint:
// staged frames when the delta pipeline is active, else checkpoint bytes.
func kibPerImage(o outcome) float64 {
	m := o.metrics
	if m.CheckpointSaves == 0 {
		return 0
	}
	bytes := m.CheckpointBytes
	if m.DeltaImages+m.FullImages > 0 {
		bytes = m.BytesStaged
	}
	return float64(bytes) / 1024 / float64(m.CheckpointSaves)
}

// perLayer computes the per-layer metrics from the traced runs, so the
// simulated counters shown are those of runs with probes attached. The Go
// runtime and buffer-pool counters, the set-up Partition time and the
// engine's own commit latency come from the timed runs instead: the probes
// allocate and take time of their own.
func (r *result) perLayer() []metric {
	ts, tr := r.timed, r.traced
	med := func(name, unit string, xs []sample, f func(sample) float64) metric {
		return summary(name, unit, collectF(xs, f))
	}
	span := func(name string, ls ...layer) metric {
		return med(name, "ms", tr, func(s sample) float64 {
			var sum int64
			for _, l := range ls {
				sum += s.spans.self[l]
			}
			return float64(sum) / 1e6
		})
	}
	calls := func(name string, l layer) metric {
		return med(name, "count", tr, func(s sample) float64 { return float64(s.spans.calls[l]) })
	}
	pct := func(name string, p float64, f func(sample) []float64) metric {
		return med(name, "us", tr, func(s sample) float64 { return percentile(slices.Clone(f(s)), p) })
	}
	stepUs := func(s sample) []float64 { return s.spans.stepUs }
	captureUs := func(s sample) []float64 { return s.spans.captureUs }
	traced := func(name, unit string, f func(sample) float64) metric { return med(name, unit, tr, f) }
	timed := func(name, unit string, f func(sample) float64) metric { return med(name, unit, ts, f) }
	ns := func(v int64) float64 { return float64(v) / 1e6 }

	timedRun := summary("", "", collectF(ts, func(s sample) float64 { return s.run.Seconds() })).value
	host := r.rankStepsPerS()
	host.name = "host.rank_steps_per_s"
	return []metric{
		// app
		span("app.step_self_ms", layerStep),
		pct("app.step_us_p50", 50, stepUs),
		pct("app.step_us_p99", 99, stepUs),
		traced("app.steps", "count", func(s sample) float64 { return float64(s.spans.steps) }),
		traced("app.reexec_steps", "count", func(s sample) float64 { return float64(s.spans.reexec) }),
		span("app.snapshot_ms", layerSnapshot),
		traced("app.snapshot_kib", "KiB", func(s sample) float64 { return float64(s.spans.snapBytes) / 1024 }),
		span("app.restore_ms", layerRestore),
		traced("app.restores", "count", func(s sample) float64 { return float64(s.spans.restores) }),
		span("app.init_verify_ms", layerInit, layerVerify),
		// mpi
		span("mpi.post_ms", layerPost),
		calls("mpi.post_calls", layerPost),
		span("mpi.wait_ms", layerWait),
		calls("mpi.wait_calls", layerWait),
		span("mpi.coll_ms", layerColl),
		calls("mpi.coll_calls", layerColl),
		traced("mpi.sends", "count", func(s sample) float64 { return float64(s.sends) }),
		traced("mpi.bytes_sent", "bytes", func(s sample) float64 { return float64(s.bytesSent) }),
		traced("mpi.suppressed_sends", "count", func(s sample) float64 { return float64(s.suppressed) }),
		// logstore
		traced("logstore.logged_mib", "MiB", func(s sample) float64 { return float64(s.loggedBytes) / mib }),
		traced("logstore.retained_mib", "MiB", func(s sample) float64 { return float64(s.retained) / mib }),
		traced("logstore.truncated_records", "count", func(s sample) float64 { return float64(s.metrics.TruncatedLogRecords) }),
		// core: wave barrier and capture
		span("core.barrier_ms", layerBarrier),
		span("core.capture_ms", layerCapture),
		pct("core.capture_us_p50", 50, captureUs),
		pct("core.capture_us_p99", 99, captureUs),
		calls("core.captures", layerCapture),
		// core: commit, checkpoint
		timed("core.commit_latency_ms_mean", "ms", func(s sample) float64 {
			return ns(s.metrics.CheckpointCommitNs) / float64(max(s.metrics.CheckpointWaves, 1))
		}),
		traced("core.waves", "count", func(s sample) float64 { return float64(s.metrics.CheckpointWaves) }),
		traced("core.waves_canceled", "count", func(s sample) float64 { return float64(s.metrics.CheckpointWavesCanceled) }),
		traced("checkpoint.staged_mib", "MiB", func(s sample) float64 { return float64(s.metrics.BytesStaged) / mib }),
		traced("checkpoint.delta_ratio", "ratio", func(s sample) float64 { return s.metrics.DeltaRatio }),
		traced("checkpoint.delta_images", "count", func(s sample) float64 { return float64(s.metrics.DeltaImages) }),
		traced("checkpoint.full_images", "count", func(s sample) float64 { return float64(s.metrics.FullImages) }),
		traced("checkpoint.stage_ms", "ms", func(s sample) float64 { return ns(s.storage.stageNs) }),
		traced("checkpoint.stages", "count", func(s sample) float64 { return float64(s.storage.stages) }),
		traced("checkpoint.publish_ms", "ms", func(s sample) float64 { return ns(s.storage.publishNs) }),
		traced("checkpoint.load_ms", "ms", func(s sample) float64 { return ns(s.storage.loadNs) }),
		traced("checkpoint.loads", "count", func(s sample) float64 { return float64(s.storage.loads) }),
		traced("checkpoint.storage_errors", "count", func(s sample) float64 { return float64(s.storage.errors) }),
		traced("checkpoint.cold_put_ms", "ms", func(s sample) float64 { return ns(s.storage.coldPutNs) }),
		traced("checkpoint.cold_get_ms", "ms", func(s sample) float64 { return ns(s.storage.coldGetNs) }),
		traced("checkpoint.demotions", "count", func(s sample) float64 { return float64(s.demotions) }),
		traced("checkpoint.replica_fallbacks", "count", func(s sample) float64 { return float64(s.fallbacks) }),
		// core: recovery
		span("core.recovery_ms", layerRecovery),
		traced("core.recovery_span_ms", "ms", func(s sample) float64 { return ns(s.spans.recoveryNs) }),
		traced("core.recovery_events", "count", func(s sample) float64 { return float64(s.metrics.RecoveryEvents) }),
		traced("core.restored_checkpoints", "count", func(s sample) float64 { return float64(s.metrics.RestoredCheckpoints) }),
		traced("core.replayed_records", "count", func(s sample) float64 { return float64(s.metrics.ReplayedRecords) }),
		traced("core.replayed_kib", "KiB", func(s sample) float64 { return float64(s.metrics.ReplayedBytes) / 1024 }),
		traced("core.recovery_virt_ms", "ms", func(s sample) float64 { return r.recoveryVirtMs(s.outcome) }),
		traced("core.rolled_back_ranks", "count", func(s sample) float64 { return float64(len(s.metrics.RolledBackRanks)) }),
		// core: adaptive; clustering
		traced("core.epoch_switches", "count", func(s sample) float64 { return float64(s.metrics.EpochSwitches) }),
		timed("clustering.partition_ms", "ms", func(s sample) float64 { return s.partition.Seconds() * 1e3 }),
		// trace
		traced("trace.events", "count", func(s sample) float64 { return float64(s.traceEvents) }),
		// buf
		timed("buf.pool_gets", "count", func(s sample) float64 { return s.during.poolGets }),
		timed("buf.pool_hit_ratio", "ratio", func(s sample) float64 {
			if s.during.poolGets == 0 {
				return 0
			}
			return 1 - s.during.poolMisses/s.during.poolGets
		}),
		// gc
		timed("gc.alloc_mib", "MiB", func(s sample) float64 { return s.during.allocMiB }),
		timed("gc.cycles", "count", func(s sample) float64 { return s.during.cycles }),
		timed("gc.pause_ms", "ms", func(s sample) float64 { return s.during.pauseMs }),
		timed("gc.cpu_fraction", "ratio", func(s sample) float64 { return s.during.cpuFraction }),
		// host: plain host-time throughput and the calibration load
		host,
		timed("host.calib_ms", "ms", func(s sample) float64 { return s.calib.Seconds() * 1e3 }),
		// rank time: the self times above plus other add up to it
		span("core.other_ms", layerRank),
		traced("core.rank_ms", "ms", func(s sample) float64 { return ns(s.spans.rankNs) }),
		traced("trace_overhead", "ratio", func(s sample) float64 { return s.run.Seconds() / timedRun }),
	}
}
