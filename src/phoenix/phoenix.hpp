#pragma once
// coe::phoenix — survivable distributed runs (DESIGN.md §17): rank-kill
// injection, ULFM-style world repair (shrink or spare substitution),
// buddy-replicated two-phase checkpoints, and the recovery orchestration
// that rolls survivors back and replays to bitwise-identical state.

#include "phoenix/ckpt.hpp"
#include "phoenix/driver.hpp"
#include "phoenix/failure.hpp"
