package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"caltrain/internal/kernel"
)

// host is the block every result carries, so a number can be matched to
// the machine and build that produced it.
type host struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	CPU        string   `json:"cpu"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Kernel     string   `json:"kernel_active"`
	Kernels    []string `json:"kernel_impls"`
	WALFS      string   `json:"wal_fs"`
	WALFsync   string   `json:"wal_fsync"`
	Revision   string   `json:"revision"`
	HeapNote   string   `json:"heap_note"`
}

func hostInfo(workload string, e *env) host {
	h := host{
		Workload:   workload,
		Seed:       e.seed,
		Seconds:    e.seconds,
		Trace:      e.traced,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel.Active(),
		WALFS:      fsName(e.dir),
		WALFsync:   "always",
		Revision:   revision(),
		HeapNote:   "heap_mb includes the benchmark's own generated inputs",
	}
	for _, im := range kernel.Impls() {
		h.Kernels = append(h.Kernels, im.Name)
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsName names the filesystem holding dir by its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "unknown"
}

// revision is the VCS revision the binary was built from, when the
// build could see one.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// cpuTicks reads the machine's total and stolen CPU time from
// /proc/stat; ok is false where it cannot.
func cpuTicks() (total, steal uint64, ok bool) {
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
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// stealMeter reports the share of CPU time the hypervisor gave to other
// guests while the run went on: a noisy neighbour shows here.
func stealMeter() func() (float64, bool) {
	t0, s0, ok0 := cpuTicks()
	return func() (float64, bool) {
		t1, s1, ok1 := cpuTicks()
		if !ok0 || !ok1 || t1 <= t0 {
			return 0, false
		}
		return 100 * float64(s1-s0) / float64(t1-t0), true
	}
}
