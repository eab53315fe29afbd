# Runs one command-line invocation and checks how it ends:
#
#   cmake -DEXIT_CODE=<n> -DEXPECT=<regex> -P expect_cli.cmake -- <cmd> <args>...
#
# Fails unless <cmd> exits with EXIT_CODE and its stdout+stderr, merged,
# matches the CMake regex EXPECT.  tools/CMakeLists.txt registers the
# flag-checking and report-format tests through it.
set(_command)
set(_after_separator FALSE)
math(EXPR _last "${CMAKE_ARGC} - 1")
foreach(_index RANGE ${_last})
    if(_after_separator)
        list(APPEND _command "${CMAKE_ARGV${_index}}")
    elseif("${CMAKE_ARGV${_index}}" STREQUAL "--")
        set(_after_separator TRUE)
    endif()
endforeach()
if(NOT _command)
    message(FATAL_ERROR "expect_cli: no command after --")
endif()

execute_process(COMMAND ${_command}
    RESULT_VARIABLE _code
    OUTPUT_VARIABLE _output
    ERROR_VARIABLE _output)
if(NOT _code STREQUAL "${EXIT_CODE}")
    message(FATAL_ERROR
        "expect_cli: exit code ${_code}, expected ${EXIT_CODE}\n${_output}")
endif()
if(NOT _output MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "expect_cli: output does not match '${EXPECT}':\n${_output}")
endif()
