package mpips_test

import (
	"testing"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/model"
	"hps/internal/mpips"
	"hps/internal/ps"
	"hps/internal/ps/conformance"
)

// TestTierConformance runs the shared tier suite against the MPI-cluster
// baseline's in-memory model through the suite's whole-value store adapter:
// a flat single-tier server where pushes materialize unknown keys and
// eviction retires them. The baseline is not safe for concurrent use.
func TestTierConformance(t *testing.T) {
	const dim = 8
	conformance.Run(t, conformance.Harness{
		Dim:         dim,
		Shard:       ps.NoShard,
		PushCreates: true,
		New: func(t *testing.T, ks []keys.Key) ps.Tier {
			c, err := mpips.New(mpips.Config{
				Nodes: 4,
				Spec: model.Spec{
					Name:               "conformance",
					SparseParams:       4096,
					EmbeddingDim:       dim,
					NonZerosPerExample: 4,
					HiddenLayers:       []int{8},
				},
				Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			table := c.Trainer().Embeddings()
			for i, k := range ks {
				v := embedding.NewValue(dim)
				v.Weights[0] = float32(i + 1)
				table.Put(uint64(k), v)
			}
			return &conformance.Store{
				Label: "mpi-ps",
				Dim:   dim,
				Load: func(ks []keys.Key) ([]*embedding.Value, error) {
					out := make([]*embedding.Value, len(ks))
					for i, k := range ks {
						if v := table.Get(uint64(k)); v != nil {
							out[i] = v.Clone()
						}
					}
					return out, nil
				},
				Save: func(vals map[keys.Key]*embedding.Value) error {
					for k, v := range vals {
						table.Put(uint64(k), v)
					}
					return nil
				},
				Delete: func(ks []keys.Key) int {
					n := 0
					for _, k := range ks {
						if table.Get(uint64(k)) != nil {
							table.Delete(uint64(k))
							n++
						}
					}
					return n
				},
			}
		},
	})
}
