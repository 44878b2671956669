package cluster

import (
	"testing"

	"hps/internal/keys"
)

// TestServingStatsAdd checks the aggregate: counters sum, watermarks take
// the max.
func TestServingStatsAdd(t *testing.T) {
	a := ServingStats{Requests: 1, CacheHits: 2, PushEpoch: 5, StalenessMax: 1, PushEpochLag: 3}
	b := ServingStats{Requests: 2, CacheHits: 3, PushEpoch: 4, StalenessMax: 2, PushEpochLag: 1}
	got := a.Add(b)
	if got.Requests != 3 || got.CacheHits != 5 || got.PushEpoch != 5 || got.StalenessMax != 2 {
		t.Fatalf("aggregate %+v", got)
	}
	if got.PushEpochLag != 3 {
		t.Fatalf("push epoch lag should take the max, got %+v", got)
	}
	if rate := (ServingStats{CacheHits: 30, CacheMisses: 10}).CacheHitRate(); rate != 0.75 {
		t.Fatalf("hit rate %v, want 0.75", rate)
	}
}

// TestRawPredictCodec round-trips the raw predict frames and rejects
// hostile-peer payloads whose counts do not account for the bytes.
func TestRawPredictCodec(t *testing.T) {
	req := PredictRequest{Counts: []uint32{3, 0, 1}, Keys: []keys.Key{9, 8, 7, 6}}
	frame := appendRawPredictReq(nil, req)
	got, err := parseRawPredictReq(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Counts) != 3 || got.Counts[0] != 3 || len(got.Keys) != 4 || got.Keys[3] != 6 {
		t.Fatalf("decoded %+v", got)
	}
	// Truncate a key: the counts no longer account for the payload.
	if _, err := parseRawPredictReq(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated predict request parsed")
	}
	scores := []float32{0.25, 0.5, 1.5}
	body := appendRawFloats(nil, scores)
	back, err := parseRawScores(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if back[i] != scores[i] {
			t.Fatalf("score %d: %v != %v", i, back[i], scores[i])
		}
	}
	if _, err := parseRawScores(body[:len(body)-2]); err == nil {
		t.Fatal("truncated score body parsed")
	}
}
