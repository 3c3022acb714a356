// Product root: reaches common/status.h, but nothing reaches stray/.
#include "common/status.h"
