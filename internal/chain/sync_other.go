//go:build !linux

package chain

import "os"

// syncData flushes f's data and metadata to stable storage. Platforms
// without fdatasync(2) fall back to a full fsync.
func syncData(f *os.File) error { return f.Sync() }
