#!/usr/bin/env bash
# Print the repository's four tracked size numbers, one definition each.
# Run from anywhere inside the repository: `scripts/size.sh`. Prints only;
# it gates nothing.
#
#   rust_lines        lines of tracked `.rs` files outside `vendor/` and
#                     `benchmark/`
#   pub_items         lines of those files declaring an item with `pub` or
#                     `pub(crate)`: fn, struct, enum, trait, type, const,
#                     static, mod or use
#   kbqa_env_names    distinct `KBQA_*` names in those files
#   server_config_fields
#                     `pub` fields of `ServerConfig`
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

files=()
while IFS= read -r file; do
  files+=("$file")
done < <(git ls-files '*.rs' | grep -vE '^(vendor|benchmark)/')

rust_lines=$(cat "${files[@]}" | wc -l)
pub_items=$(cat "${files[@]}" \
  | grep -cE '^\s*pub(\(crate\))? +(fn|struct|enum|trait|type|const|static|mod|use)\b')
kbqa_env_names=$(cat "${files[@]}" | grep -ohE 'KBQA_[A-Z0-9_]*[A-Z0-9]' | sort -u | wc -l)
server_config_fields=$(awk '/^pub struct ServerConfig \{/ { on = 1; next } on && /^\}/ { on = 0 } on' \
  crates/server/src/http.rs | grep -cE '^\s*pub [a-z_0-9]+:')

echo "rust_lines           $rust_lines"
echo "pub_items            $pub_items"
echo "kbqa_env_names       $kbqa_env_names"
echo "server_config_fields $server_config_fields"
