# diverse_cli parses integer flags strictly: a value that is not all digits,
# or does not fit, is a usage error (exit code 1 and
# "error: --<flag> expects a non-negative integer"), never a wrapped or
# defaulted number. A well-formed value the command cannot use (a sphere
# with fewer points than planted ones, no dimensions, a vocabulary smaller
# than a document, an empty estimator sample) is a usage error too (exit
# code 1 and "error: --<flag> must be at least ..."), never an abort; so is
# one too large to generate (more than 10^8 points, 10^9 coordinates or a
# vocabulary of 10^7 terms: "error: --<flag> must be at most ..."), checked
# before anything is allocated; so is a --workers count above 256 or a
# --chunk-kb / --worker-cache-mb whose byte count overflows, checked before
# any worker starts. A --fault-rate-* value must be a number in [0, 1]
# ("error: --<flag> expects a number in [0, 1]"). Well-formed values,
# in-range fault rates included, still solve.
#
# Run through CTest (cli_int_flags_test), or by hand:
#   cmake -DCLI=build/diverse_cli -DWORK_DIR=build -P tests/cli_int_flags.cmake

set(data "${WORK_DIR}/cli_int_flags.bin")
execute_process(
  COMMAND "${CLI}" generate --kind=cube --n=200 --out=${data}
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc})")
endif()

foreach(bad "partitions=-1" "workers=-1" "k_prime=abc" "k=+4" "partitions="
            "seed=18446744073709551616")
  string(REGEX REPLACE "=.*" "" flag "${bad}")
  execute_process(
    COMMAND "${CLI}" solve --in=${data} --backend=mapreduce --k=4 --${bad}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "--${bad}: exit code ${rc}, want 1\n${err}")
  endif()
  if(NOT err MATCHES "error: --${flag} expects a non-negative integer")
    message(FATAL_ERROR "--${bad}: unexpected stderr:\n${err}")
  endif()
endforeach()

set(out "${WORK_DIR}/cli_int_flags_out.bin")
foreach(bad "least|generate|--kind=sphere|--n=5|--out=${out}"
            "least|generate|--kind=sphere|--dim=0|--out=${out}"
            "least|generate|--kind=text|--vocab=0|--out=${out}"
            "least|generate|--kind=text|--vocab=50|--out=${out}"
            "least|estimate|--in=${data}|--sample=0"
            "most|generate|--kind=text|--vocab=4294967295|--out=${out}"
            "most|generate|--kind=sphere|--n=18446744073709551615|--out=${out}"
            "most|generate|--kind=text|--n=18446744073709551615|--out=${out}"
            "most|generate|--kind=cube|--dim=18446744073709551615|--n=1|--out=${out}"
            "most|generate|--kind=sphere|--dim=18446744073709551615|--out=${out}")
  string(REPLACE "|" ";" args "${bad}")
  list(POP_FRONT args bound)
  list(GET args 2 arg)
  string(REGEX REPLACE "^--([a-z_]+)=.*" "\\1" flag "${arg}")
  execute_process(
    COMMAND "${CLI}" ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${bad}: exit code ${rc}, want 1\n${err}")
  endif()
  if(NOT err MATCHES "error: --${flag} must be at ${bound}")
    message(FATAL_ERROR "${bad}: unexpected stderr:\n${err}")
  endif()
endforeach()

# Solve values above what a run can hold: more workers than the MapReduce
# simulator starts threads for (or the socket transport forks processes
# for), and KB / MB counts whose byte total overflows size_t. Each is
# rejected before any worker thread or process starts.
foreach(bad "--workers=257"
            "--workers=257|--transport=socket"
            "--workers=18446744073709551615"
            "--chunk-kb=18014398509481984|--transport=socket"
            "--worker-cache-mb=17592186044416|--transport=socket")
  string(REPLACE "|" ";" args "${bad}")
  list(GET args 0 arg)
  string(REGEX REPLACE "^--([a-z-]+)=.*" "\\1" flag "${arg}")
  execute_process(
    COMMAND "${CLI}" solve --in=${data} --backend=mapreduce --k=4 ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${bad}: exit code ${rc}, want 1\n${err}")
  endif()
  if(NOT err MATCHES "error: --${flag} must be at most")
    message(FATAL_ERROR "${bad}: unexpected stderr:\n${err}")
  endif()
endforeach()

# Fault rates are probabilities: a value that is not a number in [0, 1] is
# a usage error, never "no faults" or "always".
foreach(bad "crash=-1" "crash=nan" "crash=abc" "crash=2" "straggler="
            "empty-output=0.5x" "corrupt-partition=inf")
  string(REGEX REPLACE "=.*" "" kind "${bad}")
  execute_process(
    COMMAND "${CLI}" solve --in=${data} --backend=mapreduce --k=4
            --fault-rate-${bad}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "--fault-rate-${bad}: exit code ${rc}, want 1\n${err}")
  endif()
  if(NOT err MATCHES "error: --fault-rate-${kind} expects a number in \\[0, 1\\]")
    message(FATAL_ERROR "--fault-rate-${bad}: unexpected stderr:\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND "${CLI}" solve --in=${data} --backend=mapreduce --k=4 --partitions=4
          --seed=18446744073709551615 --fault-rate-crash=0
          --fault-rate-straggler=1e-300
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "well-formed flags: exit code ${rc}\n${err}")
endif()
