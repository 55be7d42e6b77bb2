package store

import "repro/internal/obs"

// RegisterMetrics exposes the WAL's lifetime counters on a metrics
// registry. Everything is collected at scrape time from atomics the log
// already maintains, so the append hot path gains no new writes. Call
// once per log per registry; duplicate registration panics by design.
func (w *WAL) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("mus_store_appended_bytes_total",
		"Frame bytes appended to the write-ahead log (headers included).",
		w.appendedBytes.Load)
	r.CounterFunc("mus_store_appended_records_total",
		"Records appended to the write-ahead log.",
		w.appendedRecs.Load)
	r.CounterFunc("mus_store_fsyncs_total",
		"Fsync calls issued by the write-ahead log (batched appends share one).",
		w.fsyncs.Load)
	r.GaugeFunc("mus_store_segments",
		"Write-ahead log segment files currently on disk.",
		func() float64 { return float64(w.Stats().Segments) })
	r.GaugeFunc("mus_store_replay_seconds",
		"Wall-clock duration of the last boot replay, in seconds.",
		func() float64 { return w.Stats().ReplayDuration.Seconds() })
	r.GaugeFunc("mus_store_replayed_records",
		"Records delivered by the last boot replay.",
		func() float64 { return float64(w.Stats().ReplayedRecords) })
}

// RegisterMetrics exposes the job log's underlying WAL counters and the
// count of records its last replay skipped as undecodable.
func (l *JobLog) RegisterMetrics(r *obs.Registry) {
	l.wal.RegisterMetrics(r)
	r.GaugeFunc("mus_store_replay_skipped_records",
		"CRC-valid records the last boot replay skipped because they decode in no known encoding (counted in mus_store_replayed_records too).",
		func() float64 { return float64(l.ReplaySkipped()) })
}
