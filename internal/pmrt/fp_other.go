//go:build !amd64

package pmrt

// callerPC has no frame-pointer read on this architecture: 0 sends every
// capture down Ctx.site's runtime.Callers path.
func callerPC() uintptr { return 0 }
