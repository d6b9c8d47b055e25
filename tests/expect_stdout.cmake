# Runs a command and compares its stdout with a pinned file, byte for byte:
#   cmake "-DCOMMAND=<binary> <args...>" -DEXPECTED=<pinned file>
#         -DACTUAL=<where to write the output> -P expect_stdout.cmake
# Fails when the command exits non-zero or its stdout differs from EXPECTED.
separate_arguments(command UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${command} OUTPUT_VARIABLE actual RESULT_VARIABLE code)
file(WRITE "${ACTUAL}" "${actual}")
if(NOT code EQUAL 0)
  message(FATAL_ERROR "'${COMMAND}' exited with ${code}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "stdout of '${COMMAND}' differs from ${EXPECTED}; "
          "see `diff -u ${EXPECTED} ${ACTUAL}`.\n"
          "If the change is intended, re-pin the file with\n"
          "  ${COMMAND} > ${EXPECTED}\n"
          "and give the reason in CHANGES.md.")
endif()
