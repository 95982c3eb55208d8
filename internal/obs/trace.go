package obs

// Lightweight span tracing. A Tracer hands out monotonically numbered
// spans with parent links and string attrs; finished spans land in a
// bounded ring (always-on, allocation-light) and, when an export file
// is attached, are appended as JSONL. Spans are recorded at End, so a
// trace file is in end-time order — children precede their parents.
//
// There is no context propagation machinery: parents are passed
// explicitly, as a SpanID next to the Tracer or as the parent
// *ActiveSpan itself (whose Child records in the parent's tracer),
// which is all the census → fabric → solver call graph needs and keeps
// the hot path to one atomic increment, two time.Now calls and a short
// critical section.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one process's tracer. Zero means
// "no span" (roots have Parent == 0).
type SpanID uint64

// Span is one finished operation.
type Span struct {
	ID      SpanID            `json:"id"`
	Parent  SpanID            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"` // unix nanoseconds
	EndNS   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's wall-clock length.
func (s Span) Duration() time.Duration {
	return time.Duration(s.EndNS - s.StartNS)
}

// DefaultRingSpans bounds the always-on finished-span ring.
const DefaultRingSpans = 4096

// Tracer records spans. The zero-value pointer is safe: a nil Tracer
// hands out nil spans whose methods all no-op, so call sites
// instrument unconditionally.
type Tracer struct {
	seq atomic.Uint64

	mu       sync.Mutex
	ring     []Span
	next     int
	recorded uint64
	out      *os.File
}

// NewTracer builds a tracer with a finished-span ring of the given
// capacity (DefaultRingSpans when <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingSpans
	}
	return &Tracer{ring: make([]Span, 0, capacity)}
}

// DefaultTracer is the process-global tracer every instrumented
// package records into unless handed an explicit one.
var DefaultTracer = NewTracer(DefaultRingSpans)

// ExportTo attaches a JSONL export file: every span finished from now
// on is appended to path (created or truncated). Call Close to flush
// and detach.
func (t *Tracer) ExportTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace export: %w", err)
	}
	t.mu.Lock()
	old := t.out
	t.out = f
	t.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// Close detaches and closes the export file, if any.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	f := t.out
	t.out = nil
	t.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Close()
}

// ActiveSpan is a started, not-yet-finished span. A nil *ActiveSpan
// (from a nil Tracer) no-ops everywhere.
type ActiveSpan struct {
	t    *Tracer
	span Span
	mu   sync.Mutex
	done bool
}

// Start opens a span. attrs are alternating key, value pairs recorded
// on the span at start.
func (t *Tracer) Start(name string, parent SpanID, attrs ...string) *ActiveSpan {
	if t == nil {
		return nil
	}
	s := &ActiveSpan{t: t, span: Span{
		ID:      SpanID(t.seq.Add(1)),
		Parent:  parent,
		Name:    name,
		StartNS: time.Now().UnixNano(),
	}}
	if len(attrs) >= 2 {
		s.span.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.span.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	return s
}

// Child opens a span under s in s's own tracer, so a child lands where
// its parent does. A nil s gives a nil span.
func (s *ActiveSpan) Child(name string, attrs ...string) *ActiveSpan {
	if s == nil {
		return nil
	}
	return s.t.Start(name, s.span.ID, attrs...)
}

// ID returns the span's id (0 on a nil span), for use as a child's
// parent.
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.span.ID
}

// SetAttr records one attribute on the span.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[key] = value
}

// End finishes the span, recording it in the tracer's ring and export
// file. Ending twice records once.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.span.EndNS = time.Now().UnixNano()
	sp := s.span
	s.mu.Unlock()
	s.t.record(sp)
}

func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
		t.next = (t.next + 1) % len(t.ring)
	}
	t.recorded++
	out := t.out
	if out != nil {
		// Encode inside the lock so concurrent span ends keep the
		// JSONL line-atomic; span end rate (shards, units, solves) is
		// far below where this would contend.
		b, err := json.Marshal(sp)
		if err == nil {
			b = append(b, '\n')
			out.Write(b)
		}
	}
	t.mu.Unlock()
}

// Spans returns the finished spans still in the ring, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) && t.next > 0 {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Recorded returns the total number of spans finished over the
// tracer's lifetime (the ring holds only the most recent).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recorded
}

// WriteJSONL dumps the ring contents (oldest first) as JSONL — the
// /debug/trace handler's payload.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, sp := range t.Spans() {
		b, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
