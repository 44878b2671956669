package memps_test

import (
	"testing"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/ps"
	"hps/internal/ps/conformance"
	"hps/internal/simtime"
	"hps/internal/ssdps"
)

// TestTierConformance runs the shared ps.Tier suite against the MEM-PS: it
// materializes first references on pull, and eviction demotes to the SSD-PS
// below (durable).
func TestTierConformance(t *testing.T) {
	const dim = 8
	conformance.Run(t, conformance.Harness{
		Dim:          dim,
		Shard:        ps.NoShard,
		PullCreates:  true,
		EvictDurable: true,
		Concurrent:   true,
		New: func(t *testing.T, ks []keys.Key) ps.Tier {
			dev, err := blockio.NewDevice(t.TempDir(), hw.DefaultGPUNode().SSD, simtime.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			store, err := ssdps.Open(dev, ssdps.Config{Dim: dim, ParamsPerFile: 8})
			if err != nil {
				t.Fatal(err)
			}
			m, err := memps.New(memps.Config{
				Dim:        dim,
				Topology:   cluster.Topology{Nodes: 1, GPUsPerNode: 1},
				Store:      store,
				LRUEntries: 1024,
				LFUEntries: 1024,
				Seed:       11,
			})
			if err != nil {
				t.Fatal(err)
			}
			// First reference materializes the suite's key set.
			if err := m.PullInto(ps.PullRequest{Shard: ps.NoShard, Keys: ks}, ps.NewValueBlock(dim)); err != nil {
				t.Fatal(err)
			}
			return m
		},
	})
}
