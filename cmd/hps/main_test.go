package main

import (
	"slices"
	"strings"
	"testing"
)

func TestParseDepths(t *testing.T) {
	got, err := parseDepths("4, 1,2,2")
	if err != nil || !slices.Equal(got, []int{1, 2, 4}) {
		t.Fatalf("parseDepths = %v, %v; want sorted, deduplicated [1 2 4]", got, err)
	}
	for _, bad := range []string{"", ",", "0", "-2", "two"} {
		if _, err := parseDepths(bad); err == nil {
			t.Errorf("parseDepths(%q) accepted", bad)
		}
	}
}

func TestParseMembers(t *testing.T) {
	if got, err := parseMembers("", 3); !slices.Equal(got, []int{0, 1, 2}) || err != nil {
		t.Fatalf(`parseMembers("", 3) = %v, %v; want [0 1 2]`, got, err)
	}
	got, err := parseMembers("0, 2,1", 3)
	if err != nil || !slices.Equal(got, []int{0, 2, 1}) {
		t.Fatalf("parseMembers = %v, %v; want [0 2 1]", got, err)
	}
	for _, bad := range []string{"1,1", "-1", "a", "0,,1", "1024"} {
		if _, err := parseMembers(bad, 3); err == nil {
			t.Errorf("parseMembers(%q) accepted", bad)
		}
	}
}

func TestResolveSpec(t *testing.T) {
	if _, err := resolveSpec("Z", defaultScale); err == nil || !strings.Contains(err.Error(), `unknown model "Z"`) {
		t.Fatalf("unknown model: err = %v", err)
	}
	if spec, err := resolveSpec("tiny", defaultScale); err != nil || spec.SparseParams == 0 {
		t.Fatalf("tiny: %+v, %v", spec, err)
	}
}

// Every case fails on its flags, before anything is trained or spawned.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"drvier"}, `unknown subcommand "drvier"`},
		{[]string{"-model", "tiny", "-ablate-depth", "1,2", "-restore"}, "-ablate-depth sweeps fresh runs"},
		{[]string{"-model", "tiny", "-ablate-depth", "1,2", "-checkpoint", "m.json"}, "-ablate-depth sweeps fresh runs"},
		{[]string{"driver", "-model", "tiny", "-ablate-depth", "1,2", "-loadgen"}, "-ablate-depth sweeps fresh runs"},
		{[]string{"driver", "-model", "tiny", "-ablate-depth", "1,2", "-replicas", "2"}, "-ablate-depth sweeps fresh runs"},
		{[]string{"driver", "-model", "tiny", "-ablate-depth", "0"}, "not a positive depth"},
		{[]string{"driver", "-shards", "2", "-replicas", "3"}, "-replicas 3 exceeds -shards 2"},
		{[]string{"driver", "-shards", "0"}, "need at least one shard"},
		{[]string{"driver", "-model", "Z"}, `unknown model "Z"`},
	} {
		err := dispatch(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("hps %s: err = %v, want %q", strings.Join(c.args, " "), err, c.want)
		}
	}
}

func TestReadReadyDeliversTheAddress(t *testing.T) {
	addr := make(chan string, 1)
	readReady(strings.NewReader("booting\n"+shardReadyPrefix+" shard=1 addr=127.0.0.1:7070\nserving\n"), addr)
	if got := <-addr; got != "127.0.0.1:7070" {
		t.Fatalf("addr = %q, want 127.0.0.1:7070", got)
	}
	if _, open := <-addr; open {
		t.Fatal("addr still open after EOF")
	}
}

func TestReadReadyClosesAtEOFWithoutAReadyLine(t *testing.T) {
	addr := make(chan string, 1)
	// An addr= on a line that is not the ready line is not an address.
	readReady(strings.NewReader("recovering addr=1.2.3.4:5\npanic: bad state\n"), addr)
	if got, open := <-addr; open {
		t.Fatalf("got address %q from a shard that never became ready", got)
	}
}
