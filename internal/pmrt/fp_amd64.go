package pmrt

// callerPC returns the return PC of the function that calls it, read with
// one frame-pointer load (fp_amd64.s). The caller must not be inlined.
func callerPC() uintptr
