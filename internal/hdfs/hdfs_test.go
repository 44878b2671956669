package hdfs

import (
	"testing"

	"hps/internal/dataset"
	"hps/internal/hw"
)

func newTestStream(t *testing.T, cfg Config) *Stream {
	t.Helper()
	gen := dataset.NewGenerator(dataset.Config{NumFeatures: 1000, NonZerosPerExample: 10}, 1)
	return NewStream(gen, cfg)
}

func TestStreamDeliversBatches(t *testing.T) {
	s := newTestStream(t, Config{BatchSize: 32})
	b, _, err := s.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 32 {
		t.Fatalf("batch size = %d", b.Len())
	}
	if s.delivered != 1 {
		t.Fatal("delivered count wrong")
	}
	if s.batchSize != 32 {
		t.Fatal("batch size wrong")
	}
}

func TestStreamDefaultBatchSize(t *testing.T) {
	s := newTestStream(t, Config{})
	if s.batchSize != 1024 {
		t.Fatalf("default batch size = %d", s.batchSize)
	}
}

func TestStreamMaxBatches(t *testing.T) {
	s := newTestStream(t, Config{BatchSize: 4, MaxBatches: 2})
	for i := 0; i < 2; i++ {
		b, _, err := s.NextBatch()
		if err != nil || b == nil {
			t.Fatalf("batch %d: %v %v", i, b, err)
		}
	}
	b, _, err := s.NextBatch()
	if err != nil || b != nil {
		t.Fatal("exhausted stream should return (nil, nil)")
	}
	if s.delivered != 2 {
		t.Fatal("delivered count should stop at max")
	}
}

func TestStreamChargesClock(t *testing.T) {
	s := newTestStream(t, Config{BatchSize: 8})
	b, w, err := s.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if want := hw.Ops(hw.ResHDFS, 1, float64(b.ByteSize())); w != want {
		t.Fatalf("counted %v, want one open of %d B", w, b.ByteSize())
	}
}

// TestStreamNilClockSafe: an exhausted stream counts no work.
func TestStreamNilClockSafe(t *testing.T) {
	s := newTestStream(t, Config{BatchSize: 8, MaxBatches: 1})
	if _, _, err := s.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if b, w, err := s.NextBatch(); b != nil || w != (hw.Work{}) || err != nil {
		t.Fatalf("exhausted stream: %v, %v, %v", b, w, err)
	}
}

func TestStreamConcurrentReaders(t *testing.T) {
	s := newTestStream(t, Config{BatchSize: 16, MaxBatches: 64})
	done := make(chan int, 4)
	for w := 0; w < 4; w++ {
		go func() {
			n := 0
			for {
				b, _, err := s.NextBatch()
				if err != nil || b == nil {
					break
				}
				n++
			}
			done <- n
		}()
	}
	total := 0
	for i := 0; i < 4; i++ {
		total += <-done
	}
	if total != 64 {
		t.Fatalf("total batches consumed = %d, want 64", total)
	}
}
