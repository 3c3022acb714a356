// Includes product code, but no product root includes it.
#include "common/status.h"
