package census

// Sinks consume the census entry stream. The engine guarantees strict
// enumeration order and single-goroutine delivery: Emit is never called
// concurrently, and entry i is emitted before entry j whenever i < j —
// which is what makes a byte stream (JSON lines) reproducible across
// worker counts, and what checkpoints count against.

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Sink consumes census entries in strict enumeration order. Emit owns
// the entry only for the duration of the call; implementations that
// retain it must copy. A *JSONLSink is the one sink the engine also
// repositions, flushes and measures, which is what makes a run
// resumable; every other sink only receives entries.
type Sink interface {
	Emit(e *Entry) error
}

// Collector is the in-memory sink: it materializes every entry, which
// is what Run uses to build the full Report for MaxDomain-sized
// domains.
type Collector struct {
	Entries []Entry
}

// Emit appends a deep copy of the entry: the Sink contract only loans
// the entry for the duration of the call, so a retained shallow copy
// would alias its slice and pointer fields against the caller's.
func (c *Collector) Emit(e *Entry) error {
	c.Entries = append(c.Entries, *e.Clone())
	return nil
}

// Discard drops every entry: the aggregating-summarizer mode, where the
// running Summary the engine maintains is the only output. Memory is
// O(1) in the domain.
type Discard struct{}

// Emit drops the entry.
func (Discard) Emit(*Entry) error { return nil }

// JSONLSink streams entries as JSON lines (one Entry object per line)
// to a file, tracking byte offsets for checkpointing; optionally the
// lines are gzip-compressed (see NewJSONLSinkCompressed).
//
// Uncompressed, the final file of a run — interrupted and resumed any
// number of times, at any worker count — is byte-identical to that of
// an uninterrupted serial run. Compressed, that guarantee holds for the
// DECOMPRESSED stream: the engine flushes at checkpoints, each flush
// closes the current gzip member (concatenated members form a standard
// multi-stream gzip file), so the compressed framing depends on the
// checkpoint cadence while the content never does. Offsets recorded by
// checkpoints always land on member boundaries, which is what keeps
// resume truncation correct.
type JSONLSink struct {
	f        *os.File
	cnt      countingWriter
	w        *bufio.Writer
	gz       *gzip.Writer // open gzip member; nil between members and when uncompressed
	compress bool
	base     int64 // offset established by ResumeAt
}

// countingWriter counts the bytes that reached the underlying file —
// the durable-offset source for compressed streams, where bytes only
// land on gzip-member close.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// NewJSONLSink opens (creating if needed) the JSONL stream at path. A
// path ending in ".gz" selects the compressed form automatically. The
// file is positioned by the engine: truncated to zero on a fresh run,
// to the checkpoint offset on a resumed one. Close when done.
func NewJSONLSink(path string) (*JSONLSink, error) {
	return newJSONLSink(path, strings.HasSuffix(path, ".gz"))
}

// NewJSONLSinkCompressed opens a gzip-compressed JSONL stream at path
// regardless of its suffix — the census -compress mode that addresses
// the ~40 MB per 10 s of sweep shard growth at n=5.
func NewJSONLSinkCompressed(path string) (*JSONLSink, error) {
	return newJSONLSink(path, true)
}

func newJSONLSink(path string, compress bool) (*JSONLSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("census: open sink: %w", err)
	}
	s := &JSONLSink{f: f, compress: compress}
	s.cnt.w = f
	s.w = bufio.NewWriterSize(&s.cnt, 1<<16)
	return s, nil
}

// Compressed reports whether the sink gzips its stream.
func (s *JSONLSink) Compressed() bool { return s.compress }

// Emit writes one JSON line.
func (s *JSONLSink) Emit(e *Entry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if s.compress {
		if s.gz == nil {
			s.gz = gzip.NewWriter(s.w)
		}
		_, err = s.gz.Write(b)
		return err
	}
	_, err = s.w.Write(b)
	return err
}

// ResumeAt positions the file at a checkpoint: everything beyond the
// recorded offset (a tail written after the last checkpoint of an
// interrupted run) is truncated away. Stream calls it once, before any
// Emit; a fresh run positions at (0, 0), which empties the file. For
// compressed streams the offset is a gzip-member boundary, so the
// truncated file stays a valid multi-stream gzip and the resumed run
// simply appends new members. An output file shorter than the
// checkpoint claims is corruption and is reported instead of silently
// producing a stream with holes.
func (s *JSONLSink) ResumeAt(entries uint64, bytes int64) error {
	st, err := s.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < bytes {
		return fmt.Errorf("census: output %s is %d bytes, checkpoint expects >= %d (entries %d): output/checkpoint mismatch",
			s.f.Name(), st.Size(), bytes, entries)
	}
	if err := s.f.Truncate(bytes); err != nil {
		return err
	}
	if _, err := s.f.Seek(bytes, io.SeekStart); err != nil {
		return err
	}
	s.cnt = countingWriter{w: s.f}
	s.w.Reset(&s.cnt)
	s.gz = nil
	s.base = bytes
	return nil
}

// Offset returns the stream offset after the last emitted entry.
// Meaningful for checkpointing only after Flush (compressed streams
// buffer inside the open gzip member until then).
func (s *JSONLSink) Offset() int64 { return s.base + s.cnt.n + int64(s.w.Buffered()) }

// Flush drains the buffer and syncs the file, making Offset durable.
// In compressed mode this closes the current gzip member; the next Emit
// starts a new one.
func (s *JSONLSink) Flush() error {
	if s.gz != nil {
		if err := s.gz.Close(); err != nil {
			return err
		}
		s.gz = nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close flushes and closes the file.
func (s *JSONLSink) Close() error {
	if err := s.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
