package obs

import (
	"context"
	"sync"
	"time"
)

// DefaultSpanLimit bounds the spans a Recorder retains; once reached,
// further Start calls return nil spans.
const DefaultSpanLimit = 4096

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanData is a finished span: a named wall-clock interval plus its
// annotations, in the order they were added.
type SpanData struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Recorder collects spans emitted by instrumented code. The zero value is
// not usable; construct with NewRecorder. All methods are safe for
// concurrent use and nil-safe: a nil *Recorder accepts Start calls and
// returns nil spans, so instrumentation points never need a guard.
type Recorder struct {
	mu    sync.Mutex
	spans []SpanData
	limit int
}

// NewRecorder returns an empty recorder retaining up to DefaultSpanLimit
// spans.
func NewRecorder() *Recorder { return NewRecorderLimit(DefaultSpanLimit) }

// NewRecorderLimit returns an empty recorder retaining up to limit spans;
// limit <= 0 means DefaultSpanLimit.
func NewRecorderLimit(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Recorder{limit: limit}
}

// Start opens a span. End on the returned span records it. On a nil
// recorder, or once the span limit is reached, Start returns nil — which
// every Span method tolerates.
func (r *Recorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	full := len(r.spans) >= r.limit
	r.mu.Unlock()
	if full {
		return nil
	}
	return &Span{r: r, data: SpanData{Name: name, Start: time.Now()}}
}

// Spans returns a copy of the finished spans in completion order.
func (r *Recorder) Spans() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanData(nil), r.spans...)
}

// Span is an in-flight trace interval. A Span is owned by the goroutine
// that started it; Annotate and End are not synchronized against each
// other. All methods are nil-safe no-ops.
type Span struct {
	r     *Recorder
	data  SpanData
	ended bool
}

// Annotate attaches a key/value pair and returns the span for chaining.
func (s *Span) Annotate(key string, value any) *Span {
	if s == nil || s.ended {
		return s
	}
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
	return s
}

// End closes the span, records it, and returns its duration. Calling End
// again (or on a nil span) is a no-op returning the recorded duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended {
		return s.data.Duration
	}
	s.ended = true
	s.data.Duration = time.Since(s.data.Start)
	s.r.mu.Lock()
	if len(s.r.spans) < s.r.limit {
		s.r.spans = append(s.r.spans, s.data)
	}
	s.r.mu.Unlock()
	return s.data.Duration
}

type recorderKey struct{}

// ContextWithRecorder attaches rec to ctx; instrumented code downstream
// (core.SolveContext and friends) retrieves it with RecorderFrom and emits
// spans into it.
func ContextWithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFrom returns the recorder attached to ctx, or nil — which is
// safe to Start spans on — when none is attached.
func RecorderFrom(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}
