#include "textflag.h"

// func callerPC() uintptr
//
// callerPC returns the return address saved in its caller's frame: called
// directly from a Ctx method, that is the PC in the application code the
// method returns to. NOFRAME keeps BP the caller's frame pointer, so 8(BP)
// is the word above the caller's saved BP.
TEXT ·callerPC(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ 8(BP), AX
	MOVQ AX, ret+0(FP)
	RET
