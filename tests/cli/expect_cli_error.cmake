# Run `EXE FLAG VALUE [EXTRA]` and require that it is rejected cleanly:
# exit status 1 (not an abort, a panic or a hang) and a message on
# stderr naming FLAG (or NAME, when given: the config field a value
# that parses but fails SimConfig::validate() is reported under).
#
#   cmake -DEXE=... -DFLAG=--scale -DVALUE=abc [-DEXTRA=...] [-DNAME=scale] -P this
#
# FLAG and VALUE may be left out when the bad value comes from the
# environment (the test's ENVIRONMENT property); NAME is then required.
if(DEFINED EXTRA)
    set(cmd ${EXE} ${FLAG} ${VALUE} ${EXTRA})
else()
    set(cmd ${EXE} ${FLAG} ${VALUE})
endif()
if(NOT DEFINED NAME)
    set(NAME ${FLAG})
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 20)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${FLAG} ${VALUE}: exit status ${rc}, want 1\n${out}${err}")
endif()
string(FIND "${err}" "${NAME}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${FLAG} ${VALUE}: message does not name ${NAME}:\n${err}")
endif()
