package cost

import (
	"math"
	"testing"
)

func TestTable1Calibration(t *testing.T) {
	// Every Table 1 entry must round-trip ms → cycles → ms exactly
	// (microsecond-resolution values are exact multiples of 24 cycles).
	cases := []struct {
		name string
		got  Cycles
		ms   float64
	}{
		{"SHA1-HMAC fixed", SHA1HMACFixed, 0.340},
		{"SHA1-HMAC per block", SHA1HMACPerBlock, 0.092},
		{"AES key expansion", AESKeyExpansion, 0.074},
		{"AES encrypt block", AESEncryptBlock, 0.288},
		{"AES decrypt block", AESDecryptBlock, 0.570},
		{"Speck key expansion", SpeckKeyExpansion, 0.016},
		{"Speck encrypt block", SpeckEncryptBlock, 0.017},
		{"Speck decrypt block", SpeckDecryptBlock, 0.015},
		{"ECDSA sign", ECDSASign, 183.464},
		{"ECDSA verify", ECDSAVerify, 170.907},
	}
	for _, tc := range cases {
		if math.Abs(tc.got.Millis()-tc.ms) > 1e-9 {
			t.Errorf("%s: %v cycles = %.6f ms, want %.3f ms", tc.name, tc.got, tc.got.Millis(), tc.ms)
		}
	}
}

func TestSection31MemoryMACCost(t *testing.T) {
	// §3.1: hashing 512 KB of RAM with SHA1-HMAC. From the rounded Table 1
	// constants: 8192 blocks × 0.092 ms + 0.340 ms = 754.004 ms. The paper
	// prints 754.032 ms (computed from unrounded internals); we require our
	// value to match the rounded-constant arithmetic exactly and to be
	// within 0.01% of the paper's figure.
	got := HMACSHA1(512 * 1024)
	wantMs := 8192*0.092 + 0.340
	if math.Abs(got.Millis()-wantMs) > 1e-9 {
		t.Fatalf("HMACSHA1(512KB) = %.6f ms, want %.6f ms", got.Millis(), wantMs)
	}
	paperMs := 754.032
	if rel := math.Abs(got.Millis()-paperMs) / paperMs; rel > 1e-4 {
		t.Fatalf("HMACSHA1(512KB) = %.6f ms, deviates %.5f%% from paper's 754.032 ms", got.Millis(), rel*100)
	}
}

func TestSection41RequestValidation(t *testing.T) {
	// §4.1: "a SHA-1-based HMAC can be validated in 0.430 ms" — one
	// 512-bit message block plus the fixed overhead. Rounded constants give
	// 0.432 ms; accept within 2 µs of the paper's figure.
	got := HMACSHA1(64)
	if math.Abs(got.Millis()-0.430) > 0.0025 {
		t.Fatalf("one-block HMAC validation = %.3f ms, want ≈0.430 ms", got.Millis())
	}
	// Speck one-block processing with precomputed key schedule: 0.015–0.017 ms.
	enc := SpeckCBCEncrypt(8, false)
	if enc.Millis() != 0.017 {
		t.Fatalf("Speck one-block encrypt = %.3f ms, want 0.017", enc.Millis())
	}
	dec := SpeckCBCDecrypt(8, false)
	if dec.Millis() != 0.015 {
		t.Fatalf("Speck one-block decrypt = %.3f ms, want 0.015", dec.Millis())
	}
}

func TestBlockRounding(t *testing.T) {
	// Partial blocks must be charged as whole blocks.
	if HMACSHA1(1) != HMACSHA1(64) {
		t.Error("1-byte and 64-byte HMAC inputs should cost the same (one block)")
	}
	if HMACSHA1(65) != SHA1HMACFixed+2*SHA1HMACPerBlock {
		t.Error("65-byte HMAC input should cost two blocks")
	}
	if HMACSHA1(0) != SHA1HMACFixed {
		t.Error("empty HMAC input should cost only the fixed overhead")
	}
	if AESCBCEncrypt(17, false) != 2*AESEncryptBlock {
		t.Error("17-byte AES input should cost two blocks")
	}
	if SpeckCBCMAC(9, false) != 2*SpeckEncryptBlock {
		t.Error("9-byte Speck MAC should cost two blocks")
	}
}

func TestKeyExpansionAccounting(t *testing.T) {
	withKE := AESCBCEncrypt(16, true)
	withoutKE := AESCBCEncrypt(16, false)
	if withKE-withoutKE != AESKeyExpansion {
		t.Errorf("key expansion delta = %d cycles, want %d", withKE-withoutKE, AESKeyExpansion)
	}
	if SpeckCBCEncrypt(8, true)-SpeckCBCEncrypt(8, false) != SpeckKeyExpansion {
		t.Error("Speck key expansion not accounted")
	}
}

func TestDurationConversion(t *testing.T) {
	// 24e6 cycles = 1 simulated second (within integer truncation).
	ns := Cycles(ClockHz).Nanoseconds()
	if ns < 999_999_000 || ns > 1_000_001_000 {
		t.Fatalf("24e6 cycles = %d ns, want ≈1 s", ns)
	}
	if Cycles(0).Nanoseconds() != 0 {
		t.Fatal("0 cycles must be 0 duration")
	}
	// 3 cycles = 125 ns exactly.
	if got := Cycles(3).Nanoseconds(); got != 125 {
		t.Fatalf("3 cycles = %d ns, want 125", got)
	}
}

func TestDerivedCostFunctions(t *testing.T) {
	// SHA1Hash: per-block cost plus one finalisation block.
	if SHA1Hash(64) != 2*SHA1HMACPerBlock {
		t.Errorf("SHA1Hash(64) = %v, want 2 blocks", SHA1Hash(64))
	}
	if SHA1Hash(0) != SHA1HMACPerBlock {
		t.Errorf("SHA1Hash(0) = %v, want 1 block", SHA1Hash(0))
	}
	// FlashWrite: one word cost per 4 bytes, rounded up.
	if FlashWrite(4) != FlashWriteWord {
		t.Errorf("FlashWrite(4) = %v, want one word", FlashWrite(4))
	}
	if FlashWrite(5) != 2*FlashWriteWord {
		t.Errorf("FlashWrite(5) = %v, want two words", FlashWrite(5))
	}
	if got := FlashWrite(1024).Millis(); got < 16.3 || got > 16.5 {
		t.Errorf("FlashWrite(1KB) = %.2f ms, want ≈16.4 (256 words × 64 µs)", got)
	}
	// Decrypt paths and MAC aliases.
	if AESCBCDecrypt(32, true) != AESKeyExpansion+2*AESDecryptBlock {
		t.Error("AESCBCDecrypt with key expansion wrong")
	}
	if AESCBCDecrypt(32, false) != 2*AESDecryptBlock {
		t.Error("AESCBCDecrypt without key expansion wrong")
	}
	if AESCBCMAC(48, false) != AESCBCEncrypt(48, false) {
		t.Error("AESCBCMAC must cost one CBC encryption pass")
	}
	if SpeckCBCDecrypt(16, true) != SpeckKeyExpansion+2*SpeckDecryptBlock {
		t.Error("SpeckCBCDecrypt with key expansion wrong")
	}
}

func TestECDSACostsDominate(t *testing.T) {
	// The paper's §4.1 argument: ECC verification on the prover (~170 ms)
	// costs more than validating hundreds of symmetric requests.
	hmacOne := HMACSHA1(64)
	if ECDSAVerify < 300*hmacOne {
		t.Fatalf("expected ECDSA verify (%v cyc) ≫ 300× one-block HMAC (%v cyc)", ECDSAVerify, hmacOne)
	}
}
