# Docs-honesty check, run as a ctest via `cmake -P`:
#
#   cmake -DREPO_ROOT=<source root> -P tools/check_docs.cmake
#
# Documentation rots by referencing files that moved and tools that were
# renamed; this script makes those references part of the test suite. Over
# docs/*.md, README.md, EXPERIMENTS.md and DESIGN.md it verifies:
#   1. every backticked repo path (a token starting with src/, docs/,
#      tools/, bench/, tests/, or examples/) resolves — directories,
#      globs (`tests/golden/*.jsonl`), `:line` suffixes, and extensionless
#      binary references (`bench/scaling_curve` -> scaling_curve.cpp) are
#      all understood;
#   2. every relative markdown link target resolves from the linking file;
#   3. every tool binary this repo builds (tools/CMakeLists.txt
#      OUTPUT_NAME values) is mentioned in the documentation somewhere;
#   4. every backticked span whose first word is `nomc-<name>` names a tool
#      this repo builds, so a deleted or renamed tool cannot linger in a
#      command line;
#   5. every `build/bench/<name>` (or `./build/bench/<name>`), in a code
#      span or a code block, names a target in bench/CMakeLists.txt, so a
#      deleted figure bench cannot linger in a command line either;
#   6. every backticked bare figure or extension name (`figNN_...`,
#      `ext_...`) names a target in bench/CMakeLists.txt, a spec in
#      examples/campaigns/ or a spec in tests/golden/, so a figure table
#      cannot keep naming a deleted bench.
# Any failure lists every offending (file, reference) pair, then fails.

if(NOT DEFINED REPO_ROOT)
  get_filename_component(REPO_ROOT "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
endif()

file(GLOB doc_files "${REPO_ROOT}/docs/*.md")
list(APPEND doc_files "${REPO_ROOT}/README.md" "${REPO_ROOT}/EXPERIMENTS.md"
     "${REPO_ROOT}/DESIGN.md")
list(SORT doc_files)

set(errors "")
set(all_text "")

# The tool binaries this repo builds, read from tools/CMakeLists.txt so a
# renamed or added tool cannot drift silently (rules 3 and 4).
set(tools "")
file(STRINGS "${REPO_ROOT}/tools/CMakeLists.txt" output_names
     REGEX "OUTPUT_NAME [a-z0-9-]+")
foreach(line ${output_names})
  string(REGEX MATCH "OUTPUT_NAME ([a-z0-9-]+)" _ "${line}")
  list(APPEND tools "${CMAKE_MATCH_1}")
endforeach()

# The bench binaries this repo builds, read from bench/CMakeLists.txt
# (`nomc_figure(<name>)` and `add_executable(<name> ...)`; rules 5 and 6).
set(benches "")
file(STRINGS "${REPO_ROOT}/bench/CMakeLists.txt" bench_targets
     REGEX "^(nomc_figure|add_executable)\\([A-Za-z0-9_]+")
foreach(line ${bench_targets})
  string(REGEX MATCH "\\(([A-Za-z0-9_]+)" _ "${line}")
  list(APPEND benches "${CMAKE_MATCH_1}")
endforeach()

# Resolves one repo-relative path reference; appends to `errors` if broken.
function(check_path_token doc_name token)
  # Drop a clickable `path:line` suffix.
  string(REGEX REPLACE ":[0-9]+.*$" "" path "${token}")
  if(EXISTS "${REPO_ROOT}/${path}")
    return()
  endif()
  # Glob references (`tests/golden/*.jsonl`) must match at least one file.
  if(path MATCHES "[*]")
    file(GLOB hits "${REPO_ROOT}/${path}")
    if(hits)
      return()
    endif()
  else()
    # Built-binary references (`bench/scaling_curve`) resolve through their
    # source file (`bench/scaling_curve.cpp`).
    file(GLOB hits "${REPO_ROOT}/${path}.*")
    if(hits)
      return()
    endif()
  endif()
  set(errors "${errors}  ${doc_name}: broken path reference `${token}`\n" PARENT_SCOPE)
endfunction()

foreach(doc ${doc_files})
  file(READ "${doc}" text)
  get_filename_component(doc_name "${doc}" NAME)
  get_filename_component(doc_dir "${doc}" DIRECTORY)
  set(all_text "${all_text}${text}")

  # 1. Backticked repo paths. Tokens with spaces are command lines whose
  #    embedded paths get checked where they are referenced alone.
  string(REGEX MATCHALL "`[^`\r\n]+`" ticks "${text}")
  foreach(tick ${ticks})
    string(REGEX REPLACE "^`(.*)`$" "\\1" token "${tick}")
    if(token MATCHES "^(src|docs|tools|bench|tests|examples)/" AND NOT token MATCHES " ")
      check_path_token("${doc_name}" "${token}")
    endif()
    # 6. Bare figure/extension names name a bench or a campaign spec.
    if(token MATCHES "^(fig[0-9][0-9]|ext)_[A-Za-z0-9_]+$")
      list(FIND benches "${token}" found)
      if(found EQUAL -1 AND NOT EXISTS "${REPO_ROOT}/examples/campaigns/${token}.campaign"
         AND NOT EXISTS "${REPO_ROOT}/tests/golden/${token}.campaign")
        set(errors "${errors}  ${doc_name}: `${token}` names no bench, campaign or golden spec\n")
      endif()
    endif()
    # 4. Tool command lines name a built tool.
    if(token MATCHES "^(nomc-[a-z0-9-]+)( |$)")
      list(FIND tools "${CMAKE_MATCH_1}" found)
      if(found EQUAL -1)
        set(errors "${errors}  ${doc_name}: unknown tool in `${token}`\n")
      endif()
    endif()
  endforeach()

  # 5. Bench command lines name a built bench.
  #    A trailing `*` (`build/bench/fig*`) must match at least one bench.
  string(REGEX MATCHALL "build/bench/[A-Za-z0-9_]+[*]?" bench_refs "${text}")
  foreach(ref ${bench_refs})
    string(REGEX REPLACE "^build/bench/" "" bench "${ref}")
    set(hits ${benches})
    if(bench MATCHES "^(.*)[*]$")
      list(FILTER hits INCLUDE REGEX "^${CMAKE_MATCH_1}")
    else()
      list(FILTER hits INCLUDE REGEX "^${bench}$")
    endif()
    if(NOT hits)
      set(errors "${errors}  ${doc_name}: unknown bench binary `${ref}`\n")
    endif()
  endforeach()

  # 2. Relative markdown link targets, resolved from the linking file.
  string(REGEX MATCHALL "\\]\\(([^)\r\n]+)\\)" links "${text}")
  foreach(link ${links})
    string(REGEX REPLACE "^\\]\\((.*)\\)$" "\\1" target "${link}")
    string(REGEX REPLACE "#.*$" "" target "${target}")
    if(target STREQUAL "" OR target MATCHES "^[a-z]+://")
      continue()
    endif()
    if(NOT EXISTS "${doc_dir}/${target}")
      set(errors "${errors}  ${doc_name}: broken link target (${target})\n")
    endif()
  endforeach()
endforeach()

# 3. Every built tool binary must be documented.
foreach(tool ${tools})
  if(NOT all_text MATCHES "${tool}")
    set(errors "${errors}  no documentation mentions the `${tool}` tool\n")
  endif()
endforeach()

if(errors)
  message(FATAL_ERROR "documentation is out of date with the tree:\n${errors}")
endif()
list(LENGTH doc_files doc_count)
message(STATUS "check_docs: ${doc_count} documents verified against the tree")
