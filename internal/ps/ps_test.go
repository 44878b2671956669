package ps

import "testing"

func TestRecorder(t *testing.T) {
	var r Recorder
	r.RecordPull(10)
	r.RecordPull(5)
	r.RecordPush(7)
	r.RecordEvict(3)
	s := r.TierStats()
	if s.Pulls != 2 || s.KeysPulled != 15 {
		t.Fatalf("pull stats = %+v", s)
	}
	if s.Pushes != 1 || s.KeysPushed != 7 {
		t.Fatalf("push stats = %+v", s)
	}
	if s.Evictions != 1 || s.KeysEvicted != 3 {
		t.Fatalf("evict stats = %+v", s)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Pulls: 1, KeysPulled: 2}
	b := Stats{Pulls: 3, Pushes: 4, KeysPushed: 5, Evictions: 6}
	c := a.Add(b)
	if c.Pulls != 4 || c.KeysPulled != 2 || c.Pushes != 4 || c.KeysPushed != 5 {
		t.Fatalf("sum = %+v", c)
	}
	if c.Evictions != 6 {
		t.Fatalf("sum evictions = %+v", c)
	}
}
