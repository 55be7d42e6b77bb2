package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/obs/trace"
)

// EntryKind names one job-log record type.
type EntryKind string

// Job-log record kinds. A job's life on disk is one submit entry, zero or
// more state and points entries, and at most one result entry.
const (
	// EntrySubmit records an accepted job: its request, origin node and
	// submission time. It is the entry that makes a job durable — the
	// scheduler syncs the log before acknowledging the submission.
	EntrySubmit EntryKind = "submit"
	// EntryState records a state-machine transition (running, done,
	// failed, canceled), with the structured error for failures.
	EntryState EntryKind = "state"
	// EntryPoints records a batch of solved sweep points in grid order.
	// Because emission order is grid order, the concatenation of a job's
	// points entries is always a prefix of its final result — which is
	// what lets a restarted node resume a sweep at the first unsolved
	// index instead of re-solving everything.
	EntryPoints EntryKind = "points"
	// EntryResult records a terminal job's full result payload.
	EntryResult EntryKind = "result"
)

// Entry is one job-log record. Kind selects which optional fields are
// meaningful; Job and Time are always set.
type Entry struct {
	// Kind is the record type; see the Entry* constants.
	Kind EntryKind `json:"kind"`
	// Job is the job identifier the record belongs to.
	Job string `json:"job"`
	// Time is when the recorded event happened.
	Time time.Time `json:"time"`
	// Origin is the node that accepted the job (submit entries).
	Origin string `json:"origin,omitempty"`
	// RequestID is the X-Request-ID of the submission that created the
	// job (submit entries), replayed so a restarted node's job records
	// still answer "which request started this".
	RequestID string `json:"request_id,omitempty"`
	// Trace is the submission's W3C traceparent (submit entries): the
	// distributed trace context a resumed job re-attaches to after a
	// restart, so its recovery spans join the original trace.
	Trace string `json:"trace,omitempty"`
	// Request is the submitted payload (submit entries).
	Request *api.JobRequest `json:"request,omitempty"`
	// State is the entered state (state entries).
	State string `json:"state,omitempty"`
	// Error is the structured failure of a failed transition.
	Error *api.Error `json:"error,omitempty"`
	// Points is a batch of solved sweep points (points entries).
	Points []api.SweepPoint `json:"points,omitempty"`
	// Result is the terminal result payload (result entries).
	Result *api.JobResult `json:"result,omitempty"`
}

// JobLog is the typed façade over a WAL that the job scheduler persists
// through: Entry records — points entries in a binary layout, every other
// kind as JSON (see pointsTag) — behind the WAL's framing, durability and
// replay guarantees. Safe for concurrent use.
type JobLog struct {
	wal *WAL
	// replaySkipped counts the records the last Replay skipped as
	// undecodable.
	replaySkipped atomic.Uint64
}

// OpenJobLog opens the job log in dir (see OpenWAL for recovery
// semantics).
func OpenJobLog(dir string, opts Options) (*JobLog, error) {
	w, err := OpenWAL(dir, opts)
	if err != nil {
		return nil, err
	}
	return &JobLog{wal: w}, nil
}

// Append writes one entry. Durability follows the WAL's fsync batching;
// call Sync after appends that must be durable before acknowledgement. A
// points entry that sets a field the points layout does not hold is
// refused rather than stored without it.
func (l *JobLog) Append(e Entry) error {
	payload, err := encodeEntry(e)
	if err != nil {
		return fmt.Errorf("store: encode entry: %w", err)
	}
	return l.wal.Append(payload)
}

// AppendCtx is Append with a child span (mus.store.append) when ctx
// carries a live trace — the seam that makes WAL writes visible inside a
// request's trace tree. Tracing off degrades to a plain Append.
func (l *JobLog) AppendCtx(ctx context.Context, e Entry) error {
	sp := trace.StartLeaf(ctx, "mus.store.append")
	sp.Set(trace.Str("kind", string(e.Kind)))
	sp.Set(trace.Str("job", e.Job))
	err := l.Append(e)
	sp.Fail(err)
	sp.End()
	return err
}

// Sync forces appended entries to disk.
func (l *JobLog) Sync() error { return l.wal.Sync() }

// SyncCtx is Sync with a child span (mus.store.fsync) when ctx carries a
// live trace — fsync waits are the dominant cost of a durable submit, so
// they get their own span.
func (l *JobLog) SyncCtx(ctx context.Context) error {
	sp := trace.StartLeaf(ctx, "mus.store.fsync")
	err := l.Sync()
	sp.Fail(err)
	sp.End()
	return err
}

// Replay streams every logged entry, oldest first. Entries that fail to
// decode are skipped and counted (see ReplaySkipped): they passed the
// CRC, so they are a format-evolution artifact, not corruption.
// Framing-level corruption before the tail still returns ErrCorrupt.
func (l *JobLog) Replay(fn func(Entry) error) error {
	var skipped uint64
	err := l.wal.Replay(func(payload []byte) error {
		e, err := decodeEntry(payload)
		if err != nil {
			skipped++
			return nil
		}
		return fn(e)
	})
	l.replaySkipped.Store(skipped)
	return err
}

// ReplaySkipped reports how many records the last Replay skipped because
// they decode in no known encoding. The WAL's replayed-record count
// includes them.
func (l *JobLog) ReplaySkipped() uint64 { return l.replaySkipped.Load() }

// ReplayCtx is Replay with a child span (mus.store.replay) when ctx
// carries a live trace, annotated with how many entries streamed — the
// boot-time seam of a node restart's recovery trace.
func (l *JobLog) ReplayCtx(ctx context.Context, fn func(Entry) error) error {
	sp := trace.StartLeaf(ctx, "mus.store.replay")
	var n int64
	err := l.Replay(func(e Entry) error {
		n++
		return fn(e)
	})
	sp.Set(trace.Int("entries", n))
	sp.Fail(err)
	sp.End()
	return err
}

// Compact rewrites the log keeping only entries whose job retain accepts
// — the scheduler passes its set of still-retained job IDs, dropping
// completed-and-expired history so boot replay stays proportional to the
// live job population.
func (l *JobLog) Compact(retain func(jobID string) bool) error {
	return l.wal.Compact(func(payload []byte) bool {
		e, err := decodeEntry(payload)
		return err == nil && retain(e.Job)
	})
}

// Stats exposes the underlying WAL counters.
func (l *JobLog) Stats() WALStats { return l.wal.Stats() }

// Close flushes and closes the underlying WAL.
func (l *JobLog) Close() error { return l.wal.Close() }

// Record encodings. A points entry — one per solved sweep point, so the
// bulk of every log — is a fixed little-endian layout behind the one-byte
// pointsTag; submit, state and result entries (one to three per job,
// carrying API documents) are the JSON encoding of Entry. json.Marshal of
// an Entry always begins with '{', so a payload's first byte names its
// encoding, and a log written before the points layout existed replays
// unchanged through the JSON branch.
//
// The points layout, after the tag:
//
//	job    uvarint length, then the ID bytes
//	time   int64 Unix seconds, then uint32 nanoseconds
//	count  uvarint point count
//	then per point:
//	  index  varint
//	  value  float64 bits (uint64)
//	  flag   one byte: 1 = Perf present, 0 = absent
//	  perf   MeanJobs, MeanResponse, TailDecay, Load as float64 bits
//	         (present only when the flag is 1)
//	  error  uvarint length, then the text bytes
//
// Floats round-trip bit for bit, NaN payloads and -0 included; Time
// decodes in UTC.
const pointsTag byte = 0x01

// minPointSize is the smallest encoded point: a one-byte index, the value,
// the flag and an empty error text. The decoder checks a record's point
// count against it before allocating.
const minPointSize = 1 + 8 + 1 + 1

// errMalformedPoints reports a points record that is short, over-long or
// inconsistent with its own counts.
var errMalformedPoints = errors.New("store: malformed points record")

// encodeEntry returns e's record payload: the points layout for points
// entries, JSON for every other kind.
func encodeEntry(e Entry) ([]byte, error) {
	if e.Kind != EntryPoints {
		return json.Marshal(e)
	}
	if e.Origin != "" || e.RequestID != "" || e.Trace != "" || e.Request != nil ||
		e.State != "" || e.Error != nil || e.Result != nil {
		return nil, errors.New("points entry sets a field the points layout does not hold")
	}
	// An upper bound on the record's size, so it is built in one
	// allocation.
	size := 1 + binary.MaxVarintLen64 + len(e.Job) + 8 + 4 + binary.MaxVarintLen64
	for _, p := range e.Points {
		size += binary.MaxVarintLen64 + 8 + 1 + 4*8 + binary.MaxVarintLen64 + len(p.Error)
	}
	b := make([]byte, 0, size)
	b = append(b, pointsTag)
	b = binary.AppendUvarint(b, uint64(len(e.Job)))
	b = append(b, e.Job...)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Time.Unix()))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Time.Nanosecond()))
	b = binary.AppendUvarint(b, uint64(len(e.Points)))
	for _, p := range e.Points {
		b = binary.AppendVarint(b, int64(p.Index))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Value))
		if p.Perf == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			for _, f := range [4]float64{p.Perf.MeanJobs, p.Perf.MeanResponse, p.Perf.TailDecay, p.Perf.Load} {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
			}
		}
		b = binary.AppendUvarint(b, uint64(len(p.Error)))
		b = append(b, p.Error...)
	}
	return b, nil
}

// decodeEntry decodes one record payload, choosing the encoding from its
// first byte.
func decodeEntry(payload []byte) (Entry, error) {
	if len(payload) > 0 && payload[0] == pointsTag {
		return decodePoints(payload[1:])
	}
	var e Entry
	err := json.Unmarshal(payload, &e)
	return e, err
}

// decodePoints decodes the points layout that follows the tag. A short,
// over-long or inconsistent record fails with errMalformedPoints; no input
// panics, and no allocation exceeds what the record's length can hold.
func decodePoints(b []byte) (Entry, error) {
	r := pointsReader{b: b}
	job := r.bytes(r.uvarint())
	sec := int64(r.uint64())
	nsec := r.uint32()
	n := r.uvarint()
	if r.bad || nsec >= 1e9 || n > uint64(len(r.b)/minPointSize) {
		return Entry{}, errMalformedPoints
	}
	e := Entry{Kind: EntryPoints, Job: string(job), Time: time.Unix(sec, int64(nsec)).UTC()}
	if n > 0 {
		e.Points = make([]api.SweepPoint, n)
	}
	for i := range e.Points {
		p := &e.Points[i]
		idx := r.varint()
		p.Index = int(idx)
		if int64(p.Index) != idx {
			return Entry{}, errMalformedPoints
		}
		p.Value = r.float64()
		switch r.byte() {
		case 0:
		case 1: // calls in a composite literal run left to right
			p.Perf = &api.Performance{MeanJobs: r.float64(), MeanResponse: r.float64(), TailDecay: r.float64(), Load: r.float64()}
		default:
			return Entry{}, errMalformedPoints
		}
		p.Error = string(r.bytes(r.uvarint()))
		if r.bad {
			return Entry{}, errMalformedPoints
		}
	}
	if len(r.b) != 0 {
		return Entry{}, errMalformedPoints
	}
	return e, nil
}

// pointsReader consumes a points record front to back. A read past the
// end, or an overflowing varint, sets bad and empties the buffer, so every
// later read also fails and the caller checks bad once per group of reads.
type pointsReader struct {
	b   []byte
	bad bool
}

func (r *pointsReader) fail() {
	r.b, r.bad = nil, true
}

func (r *pointsReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *pointsReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes returns the next n bytes, aliasing the record.
func (r *pointsReader) bytes(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *pointsReader) byte() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *pointsReader) uint32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *pointsReader) uint64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *pointsReader) float64() float64 { return math.Float64frombits(r.uint64()) }
