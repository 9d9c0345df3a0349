package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// environment records what the numbers were measured on.
func (r *run) environment() {
	r.record["workload"] = r.cfg.workload
	r.record["seed"] = r.cfg.seed
	r.record["seconds"] = r.cfg.seconds
	r.record["trace"] = r.cfg.trace
	r.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.record["nproc"] = runtime.NumCPU()
	r.record["cpu_model"] = cpuModel()
	r.record["go_version"] = runtime.Version()
	r.record["commit"] = gitCommit(".")
}

// stealTicks reads the host's CPU time counters from /proc/stat: all
// CPUs' time and the part the hypervisor gave to other guests, in
// clock ticks. ok is false where the counters cannot be read.
func stealTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user … steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// stealPct returns a function that reports the percentage of CPU time
// the host stole since stealPct was called, or -1 where /proc/stat
// cannot be read. Noisy neighbours on a shared host show up here.
func stealPct() func() float64 {
	t0, s0, ok0 := stealTicks()
	return func() float64 {
		t1, s1, ok1 := stealTicks()
		if !ok0 || !ok1 || t1 == t0 {
			return -1
		}
		return 100 * float64(s1-s0) / float64(t1-t0)
	}
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

// gitCommit resolves HEAD of the checkout at root without running git;
// a checkout that is not a git repository records "none" and is
// identified by its source digest instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout,
// identifying the code a result was measured on even where no git
// metadata exists.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
