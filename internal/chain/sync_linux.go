//go:build linux

package chain

import (
	"os"
	"syscall"
)

// syncData flushes f's data — and the metadata required to read it back,
// such as the file size — to stable storage. On Linux it uses
// fdatasync(2), which skips the mtime-only journal commit a full fsync
// forces; for an append-only log synced on every group commit that cuts
// a measurable slice off each flush.
func syncData(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
		return nil
	}
}
