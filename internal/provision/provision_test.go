package provision

import "testing"

// TestGoldenRAM: the image is 512 KiB and byte i is byte(i*31 + 5) at
// every index, so building it from one period changes no byte.
func TestGoldenRAM(t *testing.T) {
	ram := GoldenRAM()
	if len(ram) != 512*1024 {
		t.Fatalf("len(GoldenRAM()) = %d, want 512 KiB", len(ram))
	}
	for i, b := range ram {
		if want := byte(i*31 + 5); b != want {
			t.Fatalf("byte %d = %#02x, want %#02x", i, b, want)
		}
	}
}
