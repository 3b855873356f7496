package obs

import (
	"context"
	"sync"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	sp := rec.Start("anything")
	sp.Annotate("k", 1)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if rec.Spans() != nil {
		t.Fatal("nil recorder reported data")
	}
}

func TestRecorderCollectsSpans(t *testing.T) {
	rec := NewRecorder()
	sp := rec.Start("solve/greedy").Annotate("events", 2).Annotate("users", 3)
	if d := sp.End(); d < 0 {
		t.Fatalf("duration = %v", d)
	}
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	got := spans[0]
	if got.Name != "solve/greedy" || got.Start.IsZero() || got.Duration < 0 {
		t.Fatalf("span = %+v", got)
	}
	if len(got.Attrs) != 2 || got.Attrs[0].Key != "events" || got.Attrs[1].Value != 3 {
		t.Fatalf("attrs = %+v", got.Attrs)
	}
	// Double End is a no-op.
	if sp.End() != got.Duration {
		t.Fatal("second End changed the duration")
	}
	if len(rec.Spans()) != 1 {
		t.Fatal("second End recorded a second span")
	}
}

func TestRecorderLimit(t *testing.T) {
	rec := NewRecorderLimit(2)
	for i := 0; i < 5; i++ {
		rec.Start("s").End()
	}
	if got := len(rec.Spans()); got != 2 {
		t.Fatalf("%d spans retained, want 2", got)
	}
	if sp := rec.Start("s"); sp != nil {
		t.Fatal("Start past the limit returned a span")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorderLimit(100000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rec.Start("s").Annotate("i", i).End()
			}
		}()
	}
	wg.Wait()
	if got := len(rec.Spans()); got != 4000 {
		t.Fatalf("%d spans, want 4000", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if RecorderFrom(context.Background()) != nil {
		t.Fatal("empty context returned a recorder")
	}
	rec := NewRecorder()
	ctx := ContextWithRecorder(context.Background(), rec)
	if RecorderFrom(ctx) != rec {
		t.Fatal("recorder did not round-trip through context")
	}
	RecorderFrom(context.Background()).Start("noop").End() // must not panic
}
