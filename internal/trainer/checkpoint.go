package trainer

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// This file is the trainer half of the durability story. A training run's
// state lives in two places: the sparse embeddings, whose durable copies are
// the per-shard SSD-PS directories (flushed by Trainer.Flush, recovered by
// ssdps.Store.Recover), and everything else — the dense tower, its optimizer
// state, the learning rates and the dataset cursor — which lives only in the
// driver process. The checkpoint manifest captures that driver-side state,
// versioned and written atomically, so a restarted driver can Restore and
// resume mid-run instead of starting over.
//
// A manifest is written whenever the trainer flushes (Flush, Close, the
// SIGTERM handlers in cmd/hps) and every CheckpointInterval batches. The
// batch cursor records *completed* batches: batches that were in flight in
// the pipeline when the checkpoint was cut are re-trained after a restore,
// which is the at-least-once counterpart of the push path's exactly-once
// dedup — re-training a batch moves parameters within the staleness budget
// the pipeline already tolerates, while silently skipping one would not.

// checkpointVersion is bumped whenever the manifest schema changes shape in
// a way an older reader would misinterpret, or the key placement its shard
// directories were written under changes. Version 1 manifests come from
// builds that placed keys by modulo or a virtual-node ring; version 2 places
// them by rendezvous hashing, so a shard's keys are no longer where a
// version-1 run left them.
const checkpointVersion = 2

// Manifest is the versioned, JSON-serialized driver-side training state.
type Manifest struct {
	// Version is the manifest schema version (checkpointVersion).
	Version int `json:"version"`
	// Model names the spec; restores refuse a mismatched model.
	Model string `json:"model"`
	// Nodes and BatchSize pin the topology and batch shape: the dataset
	// cursor is only meaningful for identical per-node streams.
	Nodes     int `json:"nodes"`
	BatchSize int `json:"batch_size"`
	// Seed is the run's base seed (per-node generators derive from it).
	Seed int64 `json:"seed"`
	// Batches is the cursor: batches completed per node when the checkpoint
	// was cut. Examples is the examples trained across all nodes.
	Batches  int64 `json:"batches"`
	Examples int64 `json:"examples"`
	// SparseLR / DenseLR record the learning-rate schedule in force.
	SparseLR float32 `json:"sparse_lr"`
	DenseLR  float32 `json:"dense_lr"`
	// Dense is the flattened dense tower (nn.FlattenParams order); DenseOpt
	// is the flattened optimizer state (nn.DenseState.Flatten order).
	Dense    []float32 `json:"dense"`
	DenseOpt []float32 `json:"dense_opt"`
	// Shards maps each shard id to where its durable sparse state lives: the
	// SSD-PS directories in-process, the shard servers' -dir roots in
	// multi-process mode (informational — restore tooling and operators read
	// it; the trainer does not dereference the paths itself).
	Shards map[int]string `json:"shards,omitempty"`
}

// LoadManifest reads and structurally validates a checkpoint manifest.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trainer: read checkpoint: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("trainer: parse checkpoint %s: %w", path, err)
	}
	if m.Version == 1 {
		return nil, fmt.Errorf("trainer: checkpoint %s has version 1, written under modulo/ring placement; this build places keys by rendezvous hashing and cannot resume it", path)
	}
	if m.Version != checkpointVersion {
		return nil, fmt.Errorf("trainer: checkpoint %s has version %d, this build reads %d", path, m.Version, checkpointVersion)
	}
	return &m, nil
}

// writeManifest snapshots the driver-side state and writes it atomically
// (temp file + rename in the manifest's directory), so a crash mid-write
// leaves the previous manifest intact rather than a torn one.
func (t *Trainer) writeManifest() error {
	path := t.cfg.CheckpointPath
	m := &Manifest{
		Version:   checkpointVersion,
		Model:     t.cfg.Spec.Name,
		Nodes:     t.cfg.Topology.Nodes,
		BatchSize: t.cfg.BatchSize,
		Seed:      t.cfg.Seed,
		SparseLR:  t.cfg.SparseLR,
		DenseLR:   t.cfg.DenseLR,
		Shards:    t.shardStatePaths(),
	}
	t.mu.Lock()
	m.Batches = t.batchesDone
	m.Examples = t.examples
	t.mu.Unlock()
	// The dense tower and its optimizer state must come from the same
	// instant: holding denseMu across both flattens keeps a dense step from
	// landing between them.
	t.denseMu.Lock()
	m.Dense = t.net.FlattenParams(make([]float32, 0, len(t.denseFlat)))
	m.DenseOpt = t.denseState.Flatten(nil)
	t.denseMu.Unlock()

	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("trainer: encode checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trainer: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("trainer: checkpoint temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("trainer: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil { // the rename must publish complete bytes
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("trainer: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("trainer: publish checkpoint: %w", err)
	}
	return nil
}

// shardStatePaths names each shard's durable sparse state for the manifest.
func (t *Trainer) shardStatePaths() map[int]string {
	out := make(map[int]string, t.cfg.Topology.Nodes)
	if len(t.cfg.ShardState) > 0 {
		for id, p := range t.cfg.ShardState {
			out[id] = p
		}
		return out
	}
	if t.remote != nil {
		// Without driver-provided paths the best available name is the shard
		// address the state is served from.
		for id, addr := range t.cfg.RemoteShards {
			out[id] = addr
		}
		return out
	}
	for id := range t.nodes {
		out[id] = filepath.Join(t.tmpDir, fmt.Sprintf("node-%d", id))
	}
	return out
}

// WriteCheckpoint flushes every shard's in-memory parameters to its SSD-PS
// and writes the checkpoint manifest. It is what the SIGTERM handlers call;
// Flush does the same implicitly whenever a checkpoint path is configured.
func (t *Trainer) WriteCheckpoint() error {
	if t.cfg.CheckpointPath == "" {
		return fmt.Errorf("trainer: no checkpoint path configured")
	}
	return t.Flush()
}

// Restore loads the manifest at path and resumes the run from it: dense
// parameters and optimizer state are reloaded, local SSD-PS stores are
// recovered from disk, and every node's dataset cursor is fast-forwarded
// past the batches the checkpoint already covers (the generators are
// deterministic in (config, seed), so skipping reproduces the exact stream
// position). It returns the number of batches already completed; the
// subsequent Run trains only the remainder of cfg.Batches. Restore must be
// called before Run, on a trainer built with the same model, topology,
// batch size and seed as the checkpointed run.
func (t *Trainer) Restore(path string) (int, error) {
	m, err := LoadManifest(path)
	if err != nil {
		return 0, err
	}
	cfg := t.cfg
	switch {
	case m.Model != cfg.Spec.Name:
		return 0, fmt.Errorf("trainer: checkpoint is for model %q, trainer runs %q", m.Model, cfg.Spec.Name)
	case m.Nodes != cfg.Topology.Nodes:
		return 0, fmt.Errorf("trainer: checkpoint has %d nodes, trainer has %d", m.Nodes, cfg.Topology.Nodes)
	case m.BatchSize != cfg.BatchSize:
		return 0, fmt.Errorf("trainer: checkpoint batch size %d, trainer uses %d", m.BatchSize, cfg.BatchSize)
	case m.Seed != cfg.Seed:
		return 0, fmt.Errorf("trainer: checkpoint seed %d, trainer seeded %d (the dataset cursor would diverge)", m.Seed, cfg.Seed)
	case m.SparseLR != cfg.SparseLR || m.DenseLR != cfg.DenseLR:
		return 0, fmt.Errorf("trainer: checkpoint LRs (%g, %g) differ from configured (%g, %g)",
			m.SparseLR, m.DenseLR, cfg.SparseLR, cfg.DenseLR)
	}
	t.denseMu.Lock()
	err = t.net.SetParams(m.Dense)
	if err == nil {
		err = t.denseState.SetFromFlat(m.DenseOpt)
	}
	t.denseMu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("trainer: restore dense state: %w", err)
	}
	for _, n := range t.nodes {
		// In-process mode owns the stores: rebuild each key->file mapping
		// from the flushed SSD-PS directory. (Shard servers recover their own
		// stores via `hps serve -restore`.)
		if n.store != nil {
			// Torn parameter files are left out; the report counts them.
			if _, err := n.store.Recover(); err != nil {
				return 0, fmt.Errorf("trainer: recover node %d ssd-ps: %w", n.id, err)
			}
		}
		for b := int64(0); b < m.Batches; b++ {
			n.gen.NextBatch(cfg.BatchSize)
		}
	}
	t.mu.Lock()
	t.batchesDone = m.Batches
	t.examples = m.Examples
	t.restored = int(m.Batches)
	t.mu.Unlock()
	return int(m.Batches), nil
}
