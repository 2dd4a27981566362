# Runs stream_replay in demo mode in the current directory and checks its
# artifacts: exit 0, a decisions CSV with a header plus ${ITEMS} rows, and a
# Chrome trace JSON carrying the open_bins counter series. Invoked by ctest
# (tests/CMakeLists.txt):
#
#   cmake -DREPLAY=<path to stream_replay> -DITEMS=2000 -P stream_replay_smoke.cmake
file(REMOVE decisions.csv timeline.json)
execute_process(
  COMMAND ${REPLAY} --decisions decisions.csv --chrome-trace timeline.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream_replay exited with ${rc}")
endif()

file(STRINGS decisions.csv lines)
list(LENGTH lines count)
math(EXPR rows "${count} - 1")
list(GET lines 0 header)
if(NOT header STREQUAL "item,time,bin,new,category,openBins,levelBefore")
  message(FATAL_ERROR "unexpected decisions header: ${header}")
endif()
if(NOT rows EQUAL ITEMS)
  message(FATAL_ERROR "decisions.csv has ${rows} rows, expected ${ITEMS}")
endif()

file(READ timeline.json timeline)
string(FIND "${timeline}" "\"open_bins\"" at)
if(timeline STREQUAL "" OR at EQUAL -1)
  message(FATAL_ERROR "timeline.json is empty or has no open_bins series")
endif()
