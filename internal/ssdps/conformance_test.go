package ssdps_test

import (
	"testing"

	"hps/internal/blockio"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/ps/conformance"
	"hps/internal/simtime"
	"hps/internal/ssdps"
)

// TestTierConformance runs the shared tier suite against the SSD-PS through
// the suite's whole-value store adapter (loads via LoadInto, writes via
// Dump, retirement via Delete): the bottom tier, where missing keys stay
// absent, a read-modify-write push materializes unknown keys, and retired
// keys are left for compaction to reclaim.
func TestTierConformance(t *testing.T) {
	const dim = 8
	conformance.Run(t, conformance.Harness{
		Dim:         dim,
		Shard:       ps.NoShard,
		PushCreates: true,
		Concurrent:  true,
		New: func(t *testing.T, ks []keys.Key) ps.Tier {
			dev, err := blockio.NewDevice(t.TempDir(), hw.DefaultGPUNode().SSD, simtime.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dev.Close() })
			store, err := ssdps.Open(dev, ssdps.Config{Dim: dim, ParamsPerFile: 4})
			if err != nil {
				t.Fatal(err)
			}
			seed := make(map[keys.Key]*embedding.Value, len(ks))
			for i, k := range ks {
				v := embedding.NewValue(dim)
				v.Weights[0] = float32(i + 1)
				seed[k] = v
			}
			if err := store.Dump(seed); err != nil {
				t.Fatal(err)
			}
			return &conformance.Store{
				Label: store.Name(),
				Dim:   dim,
				Load: func(ks []keys.Key) ([]*embedding.Value, error) {
					blk := ps.NewValueBlock(dim)
					blk.Reset(dim, ks)
					if _, err := store.LoadInto(ks, blk, nil); err != nil {
						return nil, err
					}
					vals := make([]*embedding.Value, len(ks))
					for i := range ks {
						vals[i] = blk.Value(i)
					}
					return vals, nil
				},
				Save:   store.Dump,
				Delete: store.Delete,
			}
		},
	})
}
