package ps

import (
	"testing"
	"time"
)

func TestRecorder(t *testing.T) {
	var r Recorder
	r.RecordPull(10, time.Millisecond)
	r.RecordPull(5, time.Millisecond)
	r.RecordPush(7, 2*time.Millisecond)
	r.RecordEvict(3)
	s := r.TierStats()
	if s.Pulls != 2 || s.KeysPulled != 15 || s.PullTime != 2*time.Millisecond {
		t.Fatalf("pull stats = %+v", s)
	}
	if s.Pushes != 1 || s.KeysPushed != 7 || s.PushTime != 2*time.Millisecond {
		t.Fatalf("push stats = %+v", s)
	}
	if s.Evictions != 1 || s.KeysEvicted != 3 {
		t.Fatalf("evict stats = %+v", s)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Pulls: 1, KeysPulled: 2, PullTime: time.Second}
	b := Stats{Pulls: 3, Pushes: 4, KeysPushed: 5, PushTime: time.Minute}
	c := a.Add(b)
	if c.Pulls != 4 || c.KeysPulled != 2 || c.Pushes != 4 || c.KeysPushed != 5 {
		t.Fatalf("sum = %+v", c)
	}
	if c.PullTime != time.Second || c.PushTime != time.Minute {
		t.Fatalf("sum times = %+v", c)
	}
}
