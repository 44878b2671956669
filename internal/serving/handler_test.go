package serving_test

import (
	"slices"
	"testing"

	"hps/internal/cluster"
)

// TestHandleMembershipRejectsOutOfRangeIDs pins the member-id bound on the
// control plane: an update naming a negative id, or one at MemberLimit, is
// refused whole and leaves the installed ring as it was — a -1 would
// otherwise index the next SplitByNode's result out of range and crash the
// shard, and a huge id would size that result.
func TestHandleMembershipRejectsOutOfRangeIDs(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1, Members: cluster.NewMembership(cluster.NewRing([]int{0, 1}))}
	h := restoredShard(t, t.TempDir(), 0, topo)
	for _, ids := range [][]int{{-1, 0}, {0, cluster.MemberLimit}} {
		if err := h.HandleMembership(cluster.MembershipUpdate{Epoch: 1, Members: ids}); err == nil {
			t.Errorf("members %v accepted", ids)
		}
		if r := topo.Members.Ring(); r.Epoch() != 0 || !slices.Equal(r.Members(), []int{0, 1}) {
			t.Fatalf("after members %v the ring is epoch %d over %v, want epoch 0 over [0 1]", ids, r.Epoch(), r.Members())
		}
	}
	if err := h.HandleMembership(cluster.MembershipUpdate{Epoch: 1, Members: []int{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if r := topo.Members.Ring(); r.Epoch() != 1 || !slices.Equal(r.Members(), []int{0, 1, 2}) {
		t.Fatalf("a valid update left the ring at epoch %d over %v", r.Epoch(), r.Members())
	}
}
