package atomicio

// seal.go applies the package's checksum-trailer discipline to payloads
// that travel over a wire instead of through WriteFile. The distributed
// characterization fleet seals each shard-range upload so a torn
// or bit-flipped HTTP body is detected by the coordinator exactly the way
// a torn file is detected on load — same trailer, same failure taxonomy —
// and the shard range is re-leased instead of merging garbage.

// Seal returns data plus the SHA-256 checksum trailer WriteFile would
// have appended. The result is self-verifying: Unseal recovers data
// exactly, or reports corruption.
func Seal(data []byte) []byte { return appendTrailer(data) }

// Unseal verifies and strips the checksum trailer of an in-memory
// payload, returning the original bytes. Unlike ReadFile there is no file
// to quarantine: a payload without a trailer returns ErrNoChecksum, and a
// payload that fails verification returns a *CorruptError (Path "(sealed
// payload)", nothing quarantined), so receivers can reject the bytes —
// and have them re-sent — instead of trusting a torn copy.
func Unseal(raw []byte) ([]byte, error) {
	payload, err := verifyTrailer(raw)
	if err != nil {
		return nil, err
	}
	return payload, nil
}
