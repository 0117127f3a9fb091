package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the host, toolchain and source a result came from.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	GitDirty   *bool  `json:"git_dirty"`
	// SourceSHA256 hashes the module's Go sources and go.mod files, so a
	// checkout without git history is identified too.
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
}

func collectHost(root string, seed int64) hostInfo {
	h := hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Seed:       seed,
	}
	h.SourceSHA256, _ = sourceDigest(root)
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return h // not a git checkout
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		abs, _ := filepath.Abs(root)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if c, err := git("rev-parse", "HEAD"); err == nil {
		h.GitCommit = c
	}
	if s, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
		dirty := s != ""
		h.GitDirty = &dirty
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in
// path order, skipping hidden directories such as the build directory.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuTime is the user+system CPU time of this process and of its
// children that have been waited for.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return time.Duration(self.Utime.Nano() + self.Stime.Nano() + kids.Utime.Nano() + kids.Stime.Nano())
}

// peakRSSMB is the peak resident set of this process or of its largest
// waited-for child, in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024 // Maxrss is in KiB on Linux
}

// cpuStat is the machine's busy and stolen CPU time so far, in clock
// ticks, from /proc/stat. It reads zero where /proc/stat cannot be read,
// and then no time counts as stolen.
type cpuStat struct{ busy, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolenSince is the share of the machine's CPU time since s that the
// hypervisor gave to other guests: steal over busy plus steal.
func (s cpuStat) stolenSince() float64 {
	now := readCPUStat()
	busy, steal := now.busy-s.busy, now.steal-s.steal
	if now.busy < s.busy || now.steal < s.steal || busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// meter measures the wall and CPU time of a pass's work.
type meter struct {
	t0 time.Time
	c0 time.Duration
}

func startMeter() meter { return meter{t0: time.Now(), c0: cpuTime()} }

func (m meter) stop() (wall, cpu time.Duration) {
	return time.Since(m.t0), cpuTime() - m.c0
}
