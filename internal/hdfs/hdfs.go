// Package hdfs simulates the distributed file system from which training
// batches are streamed into each node's main memory (Algorithm 1 line 2,
// "batch <- get_batch_from_HDFS()").
//
// The stream wraps a dataset.Generator and counts the work of every batch it
// streams — one open and the batch's bytes, as hw.Work — so that hw.Model can
// price the "Read examples" stage of Fig 3(c), which the paper identifies as
// the bottleneck for the smaller models A and B.
package hdfs

import (
	"errors"
	"sync"

	"hps/internal/dataset"
	"hps/internal/hw"
)

// ErrClosed is returned by NextBatch after Close has been called.
var ErrClosed = errors.New("hdfs: stream closed")

// Stream delivers training batches for a single node.
// It is safe for concurrent use.
type Stream struct {
	mu        sync.Mutex
	gen       *dataset.Generator
	batchSize int
	maxBatch  int
	delivered int
	closed    bool
}

// Config configures a Stream.
type Config struct {
	// BatchSize is the number of examples per batch.
	BatchSize int
	// MaxBatches limits the stream length; 0 means unlimited.
	MaxBatches int
}

// NewStream returns a stream over the given generator.
func NewStream(gen *dataset.Generator, cfg Config) *Stream {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1024
	}
	return &Stream{
		gen:       gen,
		batchSize: cfg.BatchSize,
		maxBatch:  cfg.MaxBatches,
	}
}

// NextBatch returns the next training batch and the work of streaming it.
// It returns (nil, no work, nil) when the stream is exhausted and ErrClosed
// after Close.
func (s *Stream) NextBatch() (*dataset.Batch, hw.Work, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, hw.Work{}, ErrClosed
	}
	if s.maxBatch > 0 && s.delivered >= s.maxBatch {
		return nil, hw.Work{}, nil
	}
	b := s.gen.NextBatch(s.batchSize)
	s.delivered++
	return b, hw.Ops(hw.ResHDFS, 1, float64(b.ByteSize())), nil
}

// Delivered returns how many batches have been handed out.
func (s *Stream) Delivered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered
}

// BatchSize returns the configured examples-per-batch.
func (s *Stream) BatchSize() int { return s.batchSize }

// Close marks the stream closed; subsequent NextBatch calls fail.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
