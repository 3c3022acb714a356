# Runs source_server with one --source and at most one more flag, and fails
# unless it exits with status EXIT and its output (stdout and stderr) matches
# REGEX. The source file does not exist, so a server that accepted every
# flag would exit 1 ("cannot open") instead of starting.
#
#   cmake -DBINARY=<source_server> -DSOURCE=<spec> [-DFLAG=<flag>] \
#         -DEXIT=<status> -DREGEX=<regex> -P source_server_flag.cmake
set(args "--source=${SOURCE}")
if(NOT "${FLAG}" STREQUAL "")
  list(APPEND args "${FLAG}")
endif()
execute_process(COMMAND "${BINARY}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE exit_code
                TIMEOUT 30)
string(JOIN " " shown ${args})
if(NOT exit_code STREQUAL "${EXIT}")
  message(FATAL_ERROR "source_server ${shown} exited with ${exit_code}, "
                      "want ${EXIT}:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "source_server ${shown}: output does not match "
                      "'${REGEX}':\n${out}${err}")
endif()
