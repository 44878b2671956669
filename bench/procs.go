package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// shardReadyPrefix starts the line `hps serve` prints once its port is bound.
const shardReadyPrefix = "hps-shard ready"

// findRepoRoot walks up from the working directory to the directory whose
// go.mod declares module hps: `go run ./bench` starts at the root, `go test
// ./bench` inside bench/.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module hps") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod of module hps above the working directory")
		}
		dir = parent
	}
}

// buildHPS builds ./cmd/hps from source into bench/out/hps and returns the
// binary path and how long the build took (the go tool skips the link when
// the binary is already up to date).
func buildHPS(root, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "hps")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hps")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("bench: go build ./cmd/hps: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// shardProc is one running `hps serve` child.
type shardProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the child has been reaped
}

// shardSet is the cluster of shard children one workload runs against.
type shardSet struct {
	procs []*shardProc
}

// liveShards is every shard child currently running, so that a signal to the
// benchmark can end them before the benchmark exits.
var liveShards struct {
	sync.Mutex
	procs map[*shardProc]struct{}
}

// killLiveShards kills every running shard child and waits for each.
func killLiveShards() {
	liveShards.Lock()
	defer liveShards.Unlock()
	for p := range liveShards.procs {
		p.kill()
	}
	liveShards.procs = nil
}

// spawnShards starts n `hps serve` children for the given model over
// loopback, each with its state under dir, and waits for their ready lines.
func spawnShards(bin, dir string, n int, modelName string, cacheFrac float64, seed int64) (*shardSet, error) {
	set := &shardSet{}
	for i := 0; i < n; i++ {
		p, err := spawnShard(bin, filepath.Join(dir, fmt.Sprintf("shard-%d", i)), i, n, modelName, cacheFrac, seed)
		if err != nil {
			set.stop()
			return nil, err
		}
		set.procs = append(set.procs, p)
	}
	return set, nil
}

func spawnShard(bin, dir string, shard, shards int, modelName string, cacheFrac float64, seed int64) (*shardProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "serve",
		"-addr", "127.0.0.1:0",
		"-shard", strconv.Itoa(shard),
		"-shards", strconv.Itoa(shards),
		"-model", modelName,
		"-cache-frac", fmt.Sprint(cacheFrac),
		"-seed", strconv.FormatInt(seed, 10),
		"-dir", dir,
	)
	// The shards' exit summaries go to a log in the run directory, not to
	// the benchmark's output.
	logFile, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: spawn shard %d: %w", shard, err)
	}
	p := &shardProc{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		// Owns the pipe and the Wait for the child's lifetime: delivers the
		// ready line, keeps draining, reaps the child at EOF.
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			line := scanner.Text()
			if i := strings.LastIndex(line, "addr="); i >= 0 && strings.HasPrefix(line, shardReadyPrefix) {
				select {
				case addrCh <- line[i+len("addr="):]:
				default:
				}
			}
		}
		close(addrCh)
		_ = cmd.Wait() // exit status is irrelevant: stop() already decided to end it
		close(p.done)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			p.kill()
			return nil, fmt.Errorf("bench: shard %d exited before becoming ready (see %s)", shard, logFile.Name())
		}
		p.addr = addr
		liveShards.Lock()
		if liveShards.procs == nil {
			liveShards.procs = make(map[*shardProc]struct{})
		}
		liveShards.procs[p] = struct{}{}
		liveShards.Unlock()
		return p, nil
	case <-time.After(15 * time.Second):
		p.kill()
		return nil, fmt.Errorf("bench: shard %d not ready within 15s", shard)
	}
}

func (p *shardProc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
}

// addrs maps shard id to its bound address.
func (s *shardSet) addrs() map[int]string {
	out := make(map[int]string, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.addr
	}
	return out
}

// stop ends every child (SIGTERM, so it flushes like a real shutdown; SIGKILL
// after 10 s) and waits until each has been reaped.
func (s *shardSet) stop() {
	if s == nil {
		return
	}
	for _, p := range s.procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	}
	for _, p := range s.procs {
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.kill()
		}
		liveShards.Lock()
		delete(liveShards.procs, p)
		liveShards.Unlock()
	}
	s.procs = nil
}

// cpu returns the user+system CPU time the children have used so far.
func (s *shardSet) cpu() time.Duration {
	if s == nil {
		return 0
	}
	var total time.Duration
	for _, p := range s.procs {
		total += procCPU(p.cmd.Process.Pid)
	}
	return total
}

// memMB returns the sum of one /proc/<pid>/status memory field (VmRSS,
// VmHWM) over the children.
func (s *shardSet) memMB(field string) float64 {
	if s == nil {
		return 0
	}
	var total float64
	for _, p := range s.procs {
		total += procMemMB(strconv.Itoa(p.cmd.Process.Pid), field)
	}
	return total
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU reads a live process's user+system CPU time from /proc (0 when
// the process is gone or /proc is unavailable).
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest) // f[0] is field 3 (state); utime, stime are fields 14, 15
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * time.Second / clockTick
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the machine-wide CPU counters from /proc/stat: all ticks, and
// the ticks the hypervisor gave to someone else (steal). Zeros when
// unavailable.
func hostCPU() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// procMemMB reads one memory field of /proc/<pid>/status in MB — VmRSS
// (resident set) or VmHWM (its peak); pid may be "self". 0 when unavailable.
func procMemMB(pid, field string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetSelfPeakRSS restarts this process's peak-RSS watermark, so a workload
// run after another in one process reports its own peak. Best effort.
func resetSelfPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200) // older kernels: the peak simply carries over
}
