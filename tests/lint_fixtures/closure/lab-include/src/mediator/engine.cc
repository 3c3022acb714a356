#include "common/status.h"
#include "anonymity/kanonymity.h"
