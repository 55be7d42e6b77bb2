package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostLabel describes where and how a result was measured, so a number
// reads as this machine's under this configuration and not as a property
// of the code alone.
func hostLabel(seed int64, bin string, d *daemon, s Samples, dataDir string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "host: nproc=%d kernel=%s\n", runtime.NumCPU(), kernelRelease())
	fmt.Fprintf(&b, "host: loadgen GOMAXPROCS=%d go=%s; daemon workers=%g (default -workers 0 = GOMAXPROCS) go=%s\n",
		runtime.GOMAXPROCS(0), runtime.Version(), s.get("mus_engine_workers"), daemonGoVersion(s))
	fs := "none (in-memory daemon)"
	if dataDir != "" {
		fs = fsType(dataDir)
	}
	fmt.Fprintf(&b, "host: data-dir filesystem=%s seed=%d\n", fs, seed)
	fmt.Fprintf(&b, "host: daemon argv=%s\n", strings.Join(d.args, " "))
	defs := flagDefaults(bin)
	keys := make([]string, 0, len(defs))
	for k := range defs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+defs[k])
	}
	fmt.Fprintf(&b, "host: daemon defaults in force: %s\n", strings.Join(parts, " "))
	return b.String()
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// daemonGoVersion reads the daemon's toolchain from its mus_build_info
// series.
func daemonGoVersion(s Samples) string {
	for k := range s {
		if rest, ok := strings.CutPrefix(k, `mus_build_info{go_version="`); ok {
			if i := strings.IndexByte(rest, '"'); i >= 0 {
				return rest[:i]
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding path: the type of the longest mount
// point in /proc/self/mountinfo that contains it.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	b, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, bestType := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		pre, post, ok := strings.Cut(line, " - ")
		if !ok {
			continue
		}
		f, g := strings.Fields(pre), strings.Fields(post)
		if len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := f[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, bestType = mp, g[0]
		}
	}
	return bestType
}
