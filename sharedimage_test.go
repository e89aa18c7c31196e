package hft

// Tests for the deprecated WithSharedImage: copy-on-write frames are
// the only RAM backing, so the option must leave results, snapshots,
// checkpoints and reintegration transfers untouched.

import (
	"bytes"
	"context"
	"testing"
)

// TestSharedImageSaveRestoreAddBackup exercises the checkpoint and
// reintegration paths over COW RAM: Save/Restore round-trips
// byte-for-byte, an AddBackup state transfer from a COW-backed
// coordinator reintegrates cleanly, and clusters built with and without
// WithSharedImage write byte-identical checkpoints and end identically.
func TestSharedImageSaveRestoreAddBackup(t *testing.T) {
	drive := func(shared bool) (*Cluster, []byte) {
		opts := []Option{
			WithWorkload(DiskWrite(6, 8192)),
			WithProtocol(ProtocolNew),
		}
		if shared {
			opts = append(opts, WithSharedImage())
		}
		c, err := NewCluster(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunFor(6 * Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddBackup(); err != nil {
			t.Fatalf("AddBackup (shared=%v): %v", shared, err)
		}
		// Let the state transfer land before checkpointing (the image
		// crosses a 10 Mbps link), so both arms capture the joiner in
		// the same reintegrated state: on the COW arm the restore
		// re-shares almost every transferred page against the base
		// image.
		if _, err := c.RunFor(60 * Millisecond); err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := c.Save(&first); err != nil {
			t.Fatalf("save (shared=%v): %v", shared, err)
		}
		restored, err := Restore(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("restore (shared=%v): %v", shared, err)
		}
		var second bytes.Buffer
		if err := restored.Save(&second); err != nil {
			t.Fatalf("re-save (shared=%v): %v", shared, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/restore round trip not byte-identical (shared=%v)", shared)
		}
		c.Close()
		return restored, first.Bytes()
	}

	a, saveA := drive(true)
	b, saveB := drive(false)
	defer a.Close()
	defer b.Close()

	// WithSharedImage is a no-op: the option leaves no trace in the
	// checkpoint (its former config byte is written false either way).
	if !bytes.Equal(saveA, saveB) {
		t.Fatalf("checkpoints with and without WithSharedImage differ (%d vs %d bytes)", len(saveA), len(saveB))
	}

	ra, errA := a.Wait(context.Background())
	rb, errB := b.Wait(context.Background())
	if errA != nil || errB != nil {
		t.Fatalf("wait: with option %v, without %v", errA, errB)
	}
	if ra != rb {
		t.Fatalf("terminal results differ:\n  with option:    %+v\n  without option: %+v", ra, rb)
	}
	if sa, sb := a.Snapshot(), b.Snapshot(); sa != sb {
		t.Fatalf("final snapshots differ:\n  with option:    %+v\n  without option: %+v", sa, sb)
	}
}
