package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envStamp records what a result depends on besides the code: it is
// printed with every result and written into every output file.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Sizes      sizes  `json:"sizes"`
	// TmpFS is the filesystem type under the benchmark's temp directory,
	// where the durable workload's checkpoints and spill segments land:
	// fsync cost depends on it.
	TmpFS string `json:"tmp_fs"`
}

func stampEnv(root string, seed int64, sz sizes, gomaxprocs int) envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs,
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Seed:       seed,
		Sizes:      sz,
		TmpFS:      fsType(benchTmp),
	}
}

// gitCommit returns HEAD of the repository at root, or "unavailable" when
// root is not a git checkout (git is only asked about root's own .git, so
// it never climbs into an enclosing repository).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unavailable"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

// fsMagic names the filesystem types statfs reports on Linux.
var fsMagic = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
	0xf2f52010: "f2fs",
	0x01021997: "9p",
}

func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("statfs-type-0x%x", st.Type)
}
