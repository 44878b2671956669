package trainer

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/embedding"
	"hps/internal/hw"
)

// The miss path's golden test: a seeded two-node trainer whose MEM-PS caches
// hold less than one batch's owned keys, so every batch evicts, dumps and
// reloads through the SSD-PS. Any change to the eviction order, to which rows
// a dump carries, to the bits of a value or to the bytes a parameter file
// holds changes one of the two digests below. goldenDumps was computed on the
// tree before the MEM-PS kept its rows in a slab, goldenExtents when training
// moved to one optimizer step per batch (which changes the values the files
// hold, not which rows they hold); a change that means to alter the miss
// path's behaviour recomputes them and says why.
const (
	// goldenExtents is the digest of the backing files' extents (headers and
	// records, in creation order) after a run that compacts.
	goldenExtents = "ef23bd415bddbead428831d27e7272ed11b78a9ec52c36a726623b1526cd7823"
	// goldenDumps is the digest of every dump's ordered key list in a run
	// that never compacts, so every parameter file ever written survives.
	goldenDumps = "25f78ed15cf35a4a83cf0a7fb6119cf97e207e411516d1072b14a198f43aeb2e"
)

// goldenRun trains 60 batches on two nodes at depth 1 with a synchronous push,
// flushes, and returns the live extents of each node's backing file, in
// creation order, and the compactions the run made.
func goldenRun(t *testing.T, thresholdBytes int64) (nodes [][]goldenExtent, compactions int64) {
	t.Helper()
	dir := t.TempDir()
	tr, err := New(Config{
		Spec:              testSpec(),
		Data:              testData(),
		Topology:          cluster.Topology{Nodes: 2, GPUsPerNode: 1},
		BatchSize:         128,
		Batches:           60,
		MaxInFlight:       1,
		LRUEntries:        64,
		LFUEntries:        64,
		ParamsPerFile:     16,
		SSDThresholdBytes: thresholdBytes,
		Dir:               dir,
		Seed:              11,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.sequential = true
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.nodes {
		compactions += n.store.Stats().Compactions
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for id := range 2 {
		dev, err := blockio.NewDevice(filepath.Join(dir, fmt.Sprintf("node-%d", id)), hw.DefaultGPUNode().SSD, hw.NewCounter())
		if err != nil {
			t.Fatal(err)
		}
		var exts []goldenExtent
		dropped, err := dev.Scan(func(e blockio.Extent, records []byte) error {
			exts = append(exts, goldenExtent{e.ID, e.Records, slices.Clone(records)})
			return nil
		})
		if err != nil || len(dropped) > 0 {
			t.Fatalf("node %d: scan dropped %v, err %v", id, dropped, err)
		}
		dev.Close()
		slices.SortFunc(exts, func(a, b goldenExtent) int { return int(a.id) - int(b.id) })
		nodes = append(nodes, exts)
	}
	return nodes, compactions
}

// goldenExtent is one parameter file as the device holds it.
type goldenExtent struct {
	id      uint64
	records int
	data    []byte
}

func digest(fill func(h func(b []byte))) string {
	sum := sha256.New()
	fill(func(b []byte) { sum.Write(b) })
	return hex.EncodeToString(sum.Sum(nil))
}

// TestMissPathGolden pins the cold miss path's eviction order and disk bytes.
func TestMissPathGolden(t *testing.T) {
	stride := 8 + embedding.EncodedSize(testSpec().EmbeddingDim) // key, then the value
	compacting, compactions := goldenRun(t, 40<<10)
	if compactions == 0 {
		t.Fatal("the compacting run made no compaction")
	}
	extents := digest(func(h func([]byte)) {
		var hdr [16]byte
		for _, exts := range compacting {
			for _, e := range exts {
				binary.LittleEndian.PutUint64(hdr[:], e.id)
				binary.LittleEndian.PutUint64(hdr[8:], uint64(e.records))
				h(hdr[:])
				h(e.data)
			}
		}
	})
	whole, compactions := goldenRun(t, 0)
	if compactions != 0 {
		t.Fatalf("the run without a threshold compacted %d times", compactions)
	}
	dumps := digest(func(h func([]byte)) {
		for _, exts := range whole {
			for _, e := range exts {
				for r := range e.records {
					h(e.data[r*stride : r*stride+8])
				}
				h([]byte{0xff}) // the end of a parameter file
			}
			h([]byte{0xfe}) // the end of a node
		}
	})
	if extents != goldenExtents || dumps != goldenDumps {
		t.Fatalf("the miss path changed its behaviour:\nextents %s, want %s\ndumps   %s, want %s",
			extents, goldenExtents, dumps, goldenDumps)
	}
}
