#pragma once
// Umbrella header for the mini-hypre module.

#include "amg/boomeramg.hpp"
