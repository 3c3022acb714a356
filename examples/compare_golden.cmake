# Runs one example binary and fails unless its stdout is byte-identical to
# the committed golden. The examples seed every RNG, so any difference is a
# change in released answers or noise; a change that means it updates the
# golden.
#
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt> \
#         -P compare_golden.cmake
execute_process(COMMAND "${EXAMPLE}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${exit_code}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT "${actual}" STREQUAL "${expected}")
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from the golden:\n"
                      "  diff -u ${GOLDEN} ${ACTUAL}")
endif()
