#include "net/net_source.h"

#include "xml/parser.h"

namespace piye {
namespace net {

Result<source::FederatedSource::FragmentResult> NetSource::ExecuteFragment(
    const source::PiqlQuery& fragment, const CancelToken& cancel) const {
  return client_->ExecuteFragment(
      owner_, xml::Serialize(*fragment.ToXml(), /*indent=*/-1), cancel);
}

Result<std::vector<match::ColumnSketch>> NetSource::ExportSketches(
    const std::string& shared_key) const {
  return client_->FetchSketches(owner_, shared_key);
}

}  // namespace net
}  // namespace piye
